package main

// Router mode: `sampled -route "addr1,addr2,..."` turns the daemon
// into a thin stateless proxy over N sampled backends. Stream and
// group ids place onto backends by consistent hash (sampling/cluster),
// so every router instance with the same backend list agrees on
// ownership without coordination; any request under an id forwards to
// the owner over a per-backend reverse proxy, whose own route table
// answers it, and the persistent-session wire demuxes per frame onto
// per-backend upstream sessions (cluster.Session).
//
// Membership is driven by health: a probe loop polls every backend's
// /healthz, and when the healthy set changes the router rebuilds its
// ring and rebalances — every live stream whose owner under the new
// ring differs from the backend currently holding it moves by
// checkpoint transfer (DELETE state from the holder, PUT to the
// owner), so a backend rejoining after a restart picks its share of
// streams back up with their counters intact.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/sampling/cluster"
	"repro/sampling/wire"
)

// collections are the two id namespaces, named as their URL segment
// (/v1/streams, /v1/groups) and their list key.
var collections = [...]string{"streams", "groups"}

// router is the proxy's handler state.
type router struct {
	backends []string // full configured set, normalized base URLs
	proxies  map[string]*httputil.ReverseProxy
	client   cluster.StateClient
	logger   *slog.Logger
	decoders decoderPool

	// ring holds the current placement over the healthy subset; healthy
	// is the probe loop's latest verdict per backend. Both are read on
	// the request path, so they are atomics, not mutexes.
	ring    atomic.Pointer[cluster.Ring]
	healthy sync.Map // base URL -> bool

	// rebalanceMu serializes rebalances; the probe loop is the only
	// steady-state caller, but tests trigger checkHealth directly.
	rebalanceMu sync.Mutex

	reg         *obs.Registry
	backendsUp  *obs.Gauge
	requests    *obs.CounterVec
	handoffs    *obs.Counter
	handoffErrs *obs.Counter
}

// newRouter builds the proxy over the configured backend list. Every
// backend address becomes a base URL (scheme defaulting to http://).
func newRouter(backends []string, maxTicks int, logger *slog.Logger, client *http.Client) (*router, error) {
	rt := &router{
		proxies:  make(map[string]*httputil.ReverseProxy, len(backends)),
		client:   cluster.StateClient{Client: client},
		logger:   logger,
		decoders: decoderPool{maxTicks: maxTicks},
	}
	for _, b := range backends {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		if !strings.Contains(b, "://") {
			b = "http://" + b
		}
		u, err := url.Parse(b)
		if err != nil {
			return nil, fmt.Errorf("router: backend %q: %w", b, err)
		}
		base := u.Scheme + "://" + u.Host
		rt.backends = append(rt.backends, base)
		p := httputil.NewSingleHostReverseProxy(u)
		if client != nil {
			p.Transport = client.Transport
		}
		p.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			writeJSON(w, http.StatusBadGateway, map[string]string{"error": "backend: " + err.Error()})
		}
		rt.proxies[base] = p
	}
	if len(rt.backends) == 0 {
		return nil, errors.New("router: -route names no backends")
	}
	// Boot optimistically: every backend is assumed healthy until the
	// first probe round says otherwise, so a router never drops early
	// traffic just because its first poll has not fired yet.
	for _, b := range rt.backends {
		rt.healthy.Store(b, true)
	}
	rt.ring.Store(cluster.NewRing(rt.backends, 0))

	rt.reg = obs.NewRegistry()
	rt.backendsUp = rt.reg.NewGauge("sampled_router_backends_up", "Backends currently passing health probes.")
	rt.backendsUp.Set(float64(len(rt.backends)))
	rt.requests = rt.reg.NewCounterVec("sampled_router_requests_total", "Requests forwarded, by backend.", "backend")
	rt.handoffs = rt.reg.NewCounter("sampled_router_handoffs_total", "Streams and groups moved between backends by checkpoint transfer.")
	rt.handoffErrs = rt.reg.NewCounter("sampled_router_handoff_errors_total", "Failed stream/group handoffs.")
	version, goVersion := obs.BuildInfo()
	rt.reg.NewGaugeVec("sampled_build_info", "Build metadata; the value is always 1.",
		"version", "go_version").With(version, goVersion).Set(1)
	obs.RegisterRuntime(rt.reg, "sampled")
	return rt, nil
}

// handler builds the router's mux: every request under an id, any
// method, forwards to the id's owner, collection routes fan out and
// merge, the session wire demuxes per frame, and the router serves its
// own health and metrics.
func (rt *router) handler() http.Handler {
	mux := http.NewServeMux()
	byID := func(w http.ResponseWriter, r *http.Request) { rt.forward(w, r, r.PathValue("id")) }
	for _, coll := range collections {
		mux.HandleFunc("/v1/"+coll+"/{id}", byID)
		mux.HandleFunc("/v1/"+coll+"/{id}/{sub}", byID)
		mux.HandleFunc("GET /v1/"+coll, func(w http.ResponseWriter, r *http.Request) {
			rt.mergeLists(w, r, coll)
		})
	}
	mux.HandleFunc("POST /v1/session", rt.session)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if rt.ring.Load().Len() == 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy backends"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		rt.reg.WriteText(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such route"})
	})
	return mux
}

// forward proxies one id-addressed request to the id's owner under the
// current ring.
func (rt *router) forward(w http.ResponseWriter, r *http.Request, id string) {
	owner := rt.ring.Load().Lookup(id)
	if owner == "" {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no healthy backends"})
		return
	}
	rt.requests.With(owner).Inc()
	rt.proxies[owner].ServeHTTP(w, r)
}

// mergeLists fans a collection GET out to every healthy backend and
// merges the id lists. A backend that fails mid-fan-out degrades the
// answer, so it is a 502 rather than a silently short list.
func (rt *router) mergeLists(w http.ResponseWriter, r *http.Request, key string) {
	var ids []string
	for _, b := range rt.ring.Load().Members() {
		part, err := rt.client.List(r.Context(), b, key)
		if err != nil {
			writeJSON(w, http.StatusBadGateway, map[string]string{"error": "backend " + b + ": " + err.Error()})
			return
		}
		ids = append(ids, part...)
	}
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{key: ids, "count": len(ids)})
}

// session demuxes a persistent client session onto per-backend
// upstream sessions: each frame routes to its embedded id's owner,
// re-encoded onto that backend's long-lived connection, so the
// session wire keeps its pay-once property end to end. The merged
// totals (or the first error) answer when the client closes its body.
func (rt *router) session(w http.ResponseWriter, r *http.Request) {
	if !isTickBatch(r) {
		writeJSON(w, http.StatusUnsupportedMediaType,
			map[string]string{"error": "session bodies are binary tick-batch frames; set Content-Type " + wire.ContentType})
		return
	}
	dec := rt.decoders.get(r.Body)
	defer rt.decoders.put(dec)
	upstreams := make(map[string]*cluster.Session)
	var total sessionResponse

	// fail breaks every upstream session, so backends see a truncated
	// body rather than a clean end of session, and reports how far the
	// client session got.
	fail := func(status int, msg string) {
		cause := errors.New(msg)
		for _, up := range upstreams {
			up.Abort(cause)
		}
		writeJSON(w, status, map[string]any{
			"error": msg, "frames": total.Frames, "accepted": total.Accepted, "kept": total.Kept})
	}

	for {
		id, values, err := dec.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, wire.ErrFrameTooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			fail(status, "frame: "+err.Error())
			return
		}
		if id == "" {
			fail(http.StatusBadRequest, "session frame carries no stream id")
			return
		}
		owner := rt.ring.Load().Lookup(id)
		if owner == "" {
			fail(http.StatusServiceUnavailable, "no healthy backends")
			return
		}
		up, ok := upstreams[owner]
		if !ok {
			var err error
			if up, err = cluster.OpenSession(r.Context(), rt.client.Client, owner); err != nil {
				fail(http.StatusBadGateway, "backend "+owner+": "+err.Error())
				return
			}
			upstreams[owner] = up
			rt.requests.With(owner).Inc()
		}
		if err := up.Encode(id, values); err != nil {
			fail(http.StatusBadGateway, "backend "+owner+": "+err.Error())
			return
		}
		total.Frames++
		total.Accepted += int64(len(values))
	}

	// Clean end of client session: close every upstream body and merge
	// the backends' kept totals into the response.
	var firstErr error
	for owner, up := range upstreams {
		t, err := up.Close()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("backend %s: %w", owner, err)
		}
		total.Kept += t.Kept
	}
	if firstErr != nil {
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error": firstErr.Error(), "frames": total.Frames, "accepted": total.Accepted, "kept": total.Kept})
		return
	}
	writeJSON(w, http.StatusOK, total)
}

// checkHealth probes every configured backend, swaps in a new ring
// when membership changed, and rebalances: every stream and group
// held by a healthy backend that is not its owner under the current
// ring moves to its owner by checkpoint transfer. Convergence is by
// observed placement, not ring history, so a router restarted
// mid-rebalance finishes the job on its first probe round.
func (rt *router) checkHealth(ctx context.Context) {
	rt.rebalanceMu.Lock()
	defer rt.rebalanceMu.Unlock()

	var healthy []string
	for _, b := range rt.backends {
		ok := rt.client.Healthy(ctx, b)
		prev, _ := rt.healthy.Load(b)
		if prev != ok {
			rt.logger.Info("backend health changed", "backend", b, "healthy", ok)
		}
		rt.healthy.Store(b, ok)
		if ok {
			healthy = append(healthy, b)
		}
	}
	rt.backendsUp.Set(float64(len(healthy)))

	old := rt.ring.Load()
	changed := len(healthy) != old.Len()
	for _, b := range healthy {
		if !old.Has(b) {
			changed = true
		}
	}
	if !changed {
		return
	}
	cur := cluster.NewRing(healthy, 0)
	rt.ring.Store(cur)
	rt.logger.Info("ring rebuilt", "backends", len(healthy))
	if cur.Len() == 0 {
		return
	}
	rt.rebalance(ctx, cur)
}

// rebalance walks every healthy backend's live streams and groups and
// transfers each one its ring owner does not hold. Failures are
// logged and counted but do not stop the walk — a failed listing skips
// only that collection of that holder, and the next membership change
// (or a converged retry) picks up stragglers.
func (rt *router) rebalance(ctx context.Context, ring *cluster.Ring) {
	for _, holder := range ring.Members() {
		for _, coll := range collections {
			ids, err := rt.client.List(ctx, holder, coll)
			if err != nil {
				rt.logger.Error("rebalance: listing failed", "collection", coll, "backend", holder, "err", err)
				continue
			}
			for _, id := range ids {
				owner := ring.Lookup(id)
				if owner == holder {
					continue
				}
				if err := rt.client.Transfer(ctx, holder, owner, coll, id); err != nil {
					rt.handoffErrs.Inc()
					rt.logger.Error("handoff failed", "collection", coll, "id", id, "from", holder, "to", owner, "err", err)
					continue
				}
				rt.handoffs.Inc()
				rt.logger.Info("handed off", "collection", coll, "id", id, "from", holder, "to", owner)
			}
		}
	}
}
