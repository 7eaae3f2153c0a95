// Command sampled is the sampling service: an HTTP daemon multiplexing
// thousands of named traffic streams over live sampling engines via a
// sharded hub. Each stream is created from a sampler spec, ingests
// batched ticks, can be observed non-destructively at any moment, and
// is finalized (or evicted after an idle TTL) when its traffic stops.
//
// The v1 resource model:
//
//	PUT    /v1/streams/{id}           create: {"spec": "bernoulli:rate=1e-3,seed=7", "budget": 0, "estimator": "aggvar"}
//	POST   /v1/streams/{id}/ticks     ingest: JSON array of numbers, whitespace-separated text,
//	                                  or binary tick-batch frames (Content-Type application/x-tickbatch)
//	POST   /v1/session                streaming ingest: one long-lived connection carrying binary
//	                                  frames, each routed to the stream its embedded id names
//	GET    /v1/streams/{id}/snapshot  live summary (non-destructive)
//	GET    /v1/streams/{id}/hurst     live Hurst block: pre- vs post-sampling H (streams created with "estimator")
//	DELETE /v1/streams/{id}           finish: final summary + end-of-stream samples
//	GET    /v1/streams                live stream ids
//	GET    /metrics                   Prometheus text format (rendered by internal/obs)
//	GET    /debug/events              flight recorder: the most recent requests/errors as JSON
//	GET    /debug/pprof/*             runtime profiles (only with -pprof)
//
// The v2 addition, comparison groups, fans one input stream out to
// several techniques so they can be scored side by side on identical
// traffic (group ids are their own namespace, separate from streams):
//
//	PUT    /v1/groups/{id}            create: {"specs": ["systematic:interval=100", "bss:interval=100,L=10,eps=1.0"], "estimator": "aggvar"}
//	POST   /v1/groups/{id}/ticks      ingest one batch into every member (same body formats as stream ticks)
//	GET    /v1/groups/{id}            live comparison: input reference + per-technique summary and fidelity
//	DELETE /v1/groups/{id}            finish: final comparison + per-member end-of-stream samples
//	GET    /v1/groups                 live group ids
//
// The durability surface (v3): every stream and group is exportable as
// an exact engine-state blob, and the daemon can checkpoint and
// restore its entire hub:
//
//	GET    /healthz                   liveness: the process is up (always 200)
//	GET    /readyz                    readiness: 503 until the boot restore completes and again while draining
//	GET    /v1/streams/{id}/state     export the exact engine state (opaque binary, non-destructive)
//	PUT    /v1/streams/{id}/state     install an exported blob as a new stream (handoff receive)
//	DELETE /v1/streams/{id}/state     detach: export the state and remove the stream WITHOUT finalizing it
//	GET/PUT/DELETE /v1/groups/{id}/state   the same resource for comparison groups
//
// With -checkpoint-dir the hub restores itself from <dir>/hub.ckpt on
// boot (readyz is 503 until done), checkpoints every
// -checkpoint-interval off the hot path, checkpoints once more after
// the shutdown drain, and archives each idle stream's final state
// under <dir>/evicted/ as it is swept. A restart therefore resumes
// with byte-identical engine state: restored streams keep producing
// exactly the kept-sample sequence a never-stopped engine would.
//
// With -route "host:port,host:port,..." the daemon is a cluster
// router instead: a stateless consistent-hash proxy over N sampled
// backends (all four ingest wires forward, persistent sessions demux
// per frame onto per-backend sessions), with /healthz-driven member
// ejection and checkpoint-transfer rebalancing when membership
// changes; see router.go.
//
// The binary wire (sampling/wire) is the line-rate ingest path: frames
// decode straight into pooled []float64 batches with no per-tick
// parsing, and the session mode pays connection and routing costs once
// per connection instead of once per batch. Request bodies are capped
// (-max-body, 413 on overflow); session bodies are unbounded but every
// frame is held to a frame-declared tick cap derived from the same
// flag.
//
// Typed failures map onto statuses: unknown techniques, bad specs and
// rejected parameters are 400s, a missing stream is a 404, a duplicate
// create is a 409, an oversized body or frame a 413. Shutdown is
// graceful: SIGINT/SIGTERM stops accepting and drains in-flight
// requests.
//
// Diagnostics are structured: -log-format {text,json} and -log-level
// pick the slog handler, every request logs route/id/status/duration,
// and -version prints the build (also exported as sampled_build_info).
//
// Example:
//
//	sampled -addr :8080 -ttl 10m &
//	curl -X PUT localhost:8080/v1/streams/link0 -d '{"spec": "systematic:interval=100"}'
//	seq 1 100000 | tr '\n' ' ' | curl -X POST localhost:8080/v1/streams/link0/ticks --data-binary @-
//	curl localhost:8080/v1/streams/link0/snapshot
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/sampling/hub"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "sampled:", err)
		os.Exit(1)
	}
}

// run boots the daemon and blocks until the context is canceled and the
// server has drained. When ready is non-nil it receives the bound
// address once the listener is up — the hook the end-to-end tests use
// to boot on a loopback port.
func run(ctx context.Context, args []string, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("sampled", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		ttl         = fs.Duration("ttl", 0, "evict streams idle for longer than this (0 = never)")
		maxBody     = fs.Int64("max-body", 32<<20, "request body cap in bytes")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		ckptDir     = fs.String("checkpoint-dir", "", "durable-state directory: restore the hub from it on boot, checkpoint into it periodically and on shutdown (empty = no durability)")
		ckptEvery   = fs.Duration("checkpoint-interval", 30*time.Second, "period between checkpoints (with -checkpoint-dir)")
		route       = fs.String("route", "", "comma-separated backend addresses: serve as a cluster router over them instead of hosting streams locally")
		healthEvery = fs.Duration("health-interval", 2*time.Second, "backend health-probe period (with -route)")
		logFormat   = fs.String("log-format", "text", "log output format: text or json")
		logLevel    = fs.String("log-level", "info", "minimum log level: debug, info, warn or error (request logs are debug; 4xx/5xx are warn/error)")
		pprofOn     = fs.Bool("pprof", false, "serve runtime profiles on /debug/pprof/")
		version     = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		v, gv := obs.BuildInfo()
		fmt.Printf("sampled %s %s\n", v, gv)
		return nil
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}

	if *route != "" {
		return runRouter(ctx, *addr, *route, *maxBody, *healthEvery, *drain, logger, ready)
	}

	hubOpts := []hub.Option{hub.WithIdleTTL(*ttl)}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
		hubOpts = append(hubOpts, hub.WithEvictHook(archiveEvicted(*ckptDir, logger)))
	}
	h := hub.New(hubOpts...)
	var ckpt *checkpointer
	if *ckptDir != "" {
		ckpt = newCheckpointer(h, *ckptDir, logger)
	}

	// isReady gates /readyz. The listener comes up before the restore
	// so a restarting daemon never bounces connections, but readiness
	// flips on only once every checkpointed stream is live again.
	var isReady atomic.Bool

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "addr", ln.Addr().String(), "ttl", *ttl)

	handler := newServer(h, *maxBody, withLogger(logger), withPprof(*pprofOn), withReady(&isReady))
	boot := func() error {
		if ckpt != nil {
			if err := ckpt.restore(); err != nil {
				return fmt.Errorf("restore: %w", err)
			}
			go every(ctx, *ckptEvery, ckpt.periodic)
		}
		isReady.Store(true)
		if ready != nil {
			ready <- ln.Addr()
		}
		if *ttl > 0 {
			// A quarter of the TTL evicts an idle stream within 1.25 TTL;
			// the minute cap keeps long TTLs from sweeping rarely.
			go every(ctx, min(*ttl/4, time.Minute), func() {
				if n := h.Sweep(); n > 0 {
					logger.Info("evicted idle streams", "count", n)
				}
			})
		}
		return nil
	}
	// Draining: readiness drops first so probes steer new traffic away,
	// then in-flight requests finish, then — with no writers left — the
	// final checkpoint captures every acknowledged tick.
	if err := serveUntilDrained(ctx, ln, handler, *drain, logger, boot, func() { isReady.Store(false) }); err != nil {
		return err
	}
	if ckpt != nil {
		if err := ckpt.save(); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		logger.Info("final checkpoint written", "dir", *ckptDir)
	}
	st := h.Stats()
	logger.Info("served",
		"ticks", st.Ticks, "streams", st.Created, "ticks_per_sec", st.TicksPerSec,
		"group_ticks", st.GroupTicks, "groups", st.GroupsCreated)
	return nil
}

// runRouter boots the daemon in router mode: a stateless consistent-
// hash proxy over the -route backends with health-driven membership
// and checkpoint-transfer rebalancing; see router.go.
func runRouter(ctx context.Context, addr, route string, maxBody int64, healthEvery, drain time.Duration, logger *slog.Logger, ready chan<- net.Addr) error {
	maxTicks := int(maxBody / 8)
	if maxTicks < 1 {
		maxTicks = 1
	}
	rt, err := newRouter(strings.Split(route, ","), maxTicks, logger, nil)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Info("routing", "addr", ln.Addr().String(), "backends", len(rt.backends))

	// One synchronous probe round before announcing readiness, so the
	// first request already sees real membership, then the steady
	// polling loop: every probe round rebalances.
	boot := func() error {
		rt.checkHealth(ctx)
		if ready != nil {
			ready <- ln.Addr()
		}
		go every(ctx, healthEvery, func() { rt.checkHealth(ctx) })
		return nil
	}
	err = serveUntilDrained(ctx, ln, rt.handler(), drain, logger, boot, func() {})
	// A probe round cut by shutdown starts no new move, but the move in
	// flight settles: wait for it rather than exit mid-move.
	rt.rebalanceMu.Lock()
	defer rt.rebalanceMu.Unlock()
	return err
}

// serveUntilDrained serves h on ln and runs boot once the listener is
// live; a boot error closes the server and is returned. When ctx ends
// it calls stop, then drains in-flight requests for up to drain and
// returns once the server is down.
func serveUntilDrained(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration,
	logger *slog.Logger, boot func() error, stop func()) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if err := boot(); err != nil {
		srv.Close()
		return err
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down", "drain", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// every calls f once per period until ctx ends. A period of zero or
// less never calls it.
func every(ctx context.Context, period time.Duration, f func()) {
	if period <= 0 {
		return
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f()
		}
	}
}
