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
// Membership is driven by health: every probe round polls each
// backend's /healthz, swaps in the ring over the healthy ones and runs
// cluster.Rebalance over it — every live stream or group whose ring
// owner differs from the backend holding it moves by checkpoint
// transfer (DELETE state from the holder, PUT to the owner). The
// rebalance converges by observed placement, so a backend rejoining
// after a restart picks its share of streams back up with their
// counters intact, and a failed move or a router restart is finished
// by the next round.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/sampling/cluster"
)

// router is the proxy's handler state.
type router struct {
	backends []string // full configured set, normalized base URLs
	proxies  map[string]*httputil.ReverseProxy
	client   cluster.StateClient
	logger   *slog.Logger
	decoders decoderPool

	// ring holds the current placement over the healthy subset. It is
	// read on the request path, so it is an atomic, not a mutex.
	ring atomic.Pointer[cluster.Ring]

	// rebalanceMu serializes rebalances; the probe loop is the only
	// steady-state caller, but tests trigger checkHealth directly, and
	// shutdown takes it to wait out a round in flight.
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
	rt.ring.Store(cluster.NewRing(rt.backends))

	rt.reg = obs.NewRegistry()
	rt.backendsUp = rt.reg.NewGauge("sampled_router_backends_up", "Backends currently passing health probes.")
	rt.backendsUp.Set(float64(len(rt.backends)))
	rt.requests = rt.reg.NewCounterVec("sampled_router_requests_total", "Requests forwarded, by backend.", "backend")
	rt.handoffs = rt.reg.NewCounter("sampled_router_handoffs_total", "Streams and groups moved between backends by checkpoint transfer.")
	rt.handoffErrs = rt.reg.NewCounter("sampled_router_handoff_errors_total", "Failed stream/group handoffs and rebalance listings.")
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
	for _, coll := range cluster.Collections {
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
// session wire keeps its pay-once property end to end. When the client
// closes its body, the backends' summed totals answer, with the first
// backend's error status if one refused a frame. A body the router
// itself refuses breaks every upstream session and answers with the
// frames the router forwarded before the failure.
func (rt *router) session(w http.ResponseWriter, r *http.Request) {
	if !requireTickBatch(w, r) {
		return
	}
	dec := rt.decoders.get(r.Body)
	defer rt.decoders.put(dec)
	upstreams := make(map[string]*cluster.Session)
	total, err := readFrames(dec, nil, func(id string, values []float64) (int, error) {
		if id == "" {
			return 0, errAnonymousFrame
		}
		owner := rt.ring.Load().Lookup(id)
		if owner == "" {
			return 0, refuse(http.StatusServiceUnavailable, "no healthy backends")
		}
		up, ok := upstreams[owner]
		if !ok {
			var err error
			if up, err = cluster.OpenSession(r.Context(), rt.client.Client, owner); err != nil {
				return 0, refuse(http.StatusBadGateway, "backend %s: %w", owner, err)
			}
			upstreams[owner] = up
			rt.requests.With(owner).Inc()
		}
		if err := up.Encode(id, values); err != nil {
			return 0, backendError(owner, err)
		}
		return 0, nil // the backends report kept samples when they close
	})
	// On a failure, break every upstream session, so backends see a
	// truncated body rather than a clean end. On a clean end of the
	// client session, close every upstream body: the backends' totals,
	// not the frames the router forwarded, say what was ingested.
	if err != nil {
		for _, up := range upstreams {
			up.Abort(err)
		}
		writeIngest(w, total, err)
		return
	}
	total = ingestResponse{}
	for owner, up := range upstreams {
		t, cerr := up.Close()
		if cerr != nil && err == nil {
			err = backendError(owner, cerr)
		}
		total.Frames += t.Frames
		total.Accepted += t.Accepted
		total.Kept += t.Kept
	}
	writeIngest(w, total, err)
}

// backendError maps a failed upstream session onto the router's answer:
// the backend's own status when it answered with one, 502 when it
// never answered.
func backendError(owner string, err error) error {
	status := http.StatusBadGateway
	var pe *cluster.PeerError
	if errors.As(err, &pe) {
		status = pe.Status
	}
	return refuse(status, "backend %s: %w", owner, err)
}

// checkHealth is one probe round: it swaps in the ring over the
// backends that answer healthy, logs every backend whose membership
// flipped, and rebalances — every stream and group held by a healthy
// backend that is not its owner under the new ring moves to its owner
// by checkpoint transfer. Convergence is by observed placement, not
// ring history, so a router restarted mid-rebalance, or a transfer
// that failed, finishes the job on the next probe round.
func (rt *router) checkHealth(ctx context.Context) {
	rt.rebalanceMu.Lock()
	defer rt.rebalanceMu.Unlock()

	cur := cluster.Probe(ctx, &rt.client, rt.backends)
	old := rt.ring.Swap(cur)
	for _, b := range rt.backends {
		if old.Has(b) != cur.Has(b) {
			rt.logger.Info("backend health changed", "backend", b, "healthy", cur.Has(b))
		}
	}
	for _, h := range cluster.Rebalance(ctx, &rt.client, cur) {
		if h.Err != nil { // a failed listing has no id and no target
			rt.handoffErrs.Inc()
			rt.logger.Error("handoff failed", "collection", h.Collection, "id", h.ID, "from", h.From, "to", h.To, "err", h.Err)
			continue
		}
		rt.handoffs.Inc()
		rt.logger.Info("handed off", "collection", h.Collection, "id", h.ID, "from", h.From, "to", h.To)
	}
	// Set after the rebalance, so a backends_up reading that shows a
	// membership change also shows its handoffs done.
	rt.backendsUp.Set(float64(cur.Len()))
}
