package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/sampling"
	"repro/sampling/cluster"
	"repro/sampling/estimate"
	"repro/sampling/hub"
	"repro/sampling/wire"
)

// server is the HTTP face of a hub: the v1 stream resource plus the
// observability surface (/metrics, /debug/events and, opt-in,
// /debug/pprof).
type server struct {
	hub     *hub.Hub
	maxBody int64

	// ready backs /readyz: false until the boot-time checkpoint restore
	// completes and false again once shutdown begins draining. nil (the
	// unit-test default) reads as always ready.
	ready *atomic.Bool

	// The binary wire: pooled frame decoders held to a tick cap of the
	// body cap divided by the 8 bytes a tick occupies on the wire, so a
	// hostile length prefix is refused before any allocation.
	decoders decoderPool

	// The observability layer: every /metrics series renders from reg,
	// rec is the flight recorder behind /debug/events, and the ingest
	// instruments histogram each JSON or text batch and a sample of the
	// binary frames, by wire.
	reg           *obs.Registry
	rec           *obs.Recorder
	logger        *slog.Logger
	ingest        map[string]*wireInstruments
	binaryFrames  *frameMeter
	sessionFrames *frameMeter

	// statsCache is refreshed once per scrape by the registry's
	// OnScrape hook and read by the func-backed series, all under the
	// registry's scrape lock — one hub.Stats() walk feeds every
	// mirrored counter.
	statsCache hub.Stats

	// The hub's Hurst aggregate costs O(streams) — one engine snapshot
	// and regression per estimating stream — while every other /metrics
	// figure is O(shards). The same hook therefore times each walk and
	// reruns it only when hurstStale says so, so high-frequency scraping
	// cannot stall ingest; the per-stream /hurst endpoint is always live.
	hurstAt    time.Time
	hurstWalk  time.Duration
	hurstStats hub.HurstStats
}

// hurstStale reports whether a Hurst aggregate that is age old, and
// whose walk took walk, should be recomputed on this scrape. A walk
// under a millisecond reruns every time; a dearer one reruns only once
// its result is 100 walks old, so the walk costs a scrape at most a
// millisecond or about 1% of a core, whatever the stream count.
func hurstStale(age, walk time.Duration) bool {
	return walk < time.Millisecond || age >= 100*walk
}

// wireInstruments is one ingest wire's histogram set: decode seconds,
// encoded bytes and ticks per batch.
type wireInstruments struct {
	decode *obs.Histogram
	bytes  *obs.Histogram
	ticks  *obs.Histogram
}

// observe records one decoded batch. bytes < 0 (an unknown content
// length) skips the size observation.
func (wi *wireInstruments) observe(decode time.Duration, bytes int64, ticks int) {
	wi.decode.Observe(decode.Seconds())
	if bytes >= 0 {
		wi.bytes.Observe(float64(bytes))
	}
	wi.ticks.Observe(float64(ticks))
}

// frameMeter instruments one binary wire (single-stream POSTs or
// sessions). The frame and byte counters are exact: readFrames sums
// them locally and adds them on every sampled frame and at the end of
// each body. The histograms see only the sampled frames, which gap
// picks.
type frameMeter struct {
	frames, bytes *obs.Counter
	hist          *wireInstruments
	gap           func() int // frames from one sampled frame to the next
}

// frameSample is the mean gap between sampled binary frames: one frame
// in 64 is timed and histogrammed. The paper's premise applies to the
// daemon's own instrumentation: a random sample of the frames gives
// their distributions at a fraction of the cost of timing every one.
const frameSample = 64

// logFrameSkip is log(1 - 1/frameSample), the log ratio of the
// geometric gap law.
var logFrameSkip = math.Log1p(-1.0 / frameSample)

// frameGap draws the distance to the next sampled frame: one plus a
// geometric skip, so each frame is sampled independently with
// probability 1/frameSample. Unlike a fixed stride, such a sample
// cannot alias with a periodic input — a session that rotates through
// a fixed list of ids would otherwise time the same few streams only.
func frameGap() int {
	return 1 + int(math.Log(1-rand.Float64())/logFrameSkip)
}

// serverConfig carries the optional observability knobs; the zero
// value (no logger, no pprof) is what the unit tests run with.
type serverConfig struct {
	logger *slog.Logger
	pprof  bool
	ready  *atomic.Bool
}

// recorderEvents is the flight-recorder ring size behind /debug/events.
const recorderEvents = 256

type serverOption func(*serverConfig)

// withLogger attaches the request-scoped structured log.
func withLogger(l *slog.Logger) serverOption {
	return func(c *serverConfig) { c.logger = l }
}

// withPprof mounts net/http/pprof under /debug/pprof/.
func withPprof(on bool) serverOption {
	return func(c *serverConfig) { c.pprof = on }
}

// withReady connects /readyz to the daemon's readiness flag.
func withReady(ready *atomic.Bool) serverOption {
	return func(c *serverConfig) { c.ready = ready }
}

// newServer builds the daemon's handler around an existing hub. maxBody
// caps request bodies in bytes (0 means the default of 32 MiB) — an
// ingest batch bigger than that should be split by the client anyway.
func newServer(h *hub.Hub, maxBody int64, opts ...serverOption) http.Handler {
	if maxBody <= 0 {
		maxBody = 32 << 20
	}
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := &server{hub: h, maxBody: maxBody, logger: cfg.logger, ready: cfg.ready}
	s.decoders.maxTicks = max(int(maxBody/8), 1)
	s.reg = obs.NewRegistry()
	s.rec = obs.NewRecorder(recorderEvents)
	s.registerMetrics()

	// Every route is wrapped individually so its duration/size
	// histograms carry the static pattern as the route label and the
	// flight recorder sees the stream id; the "/" catch-all gives
	// unmatched paths a route of their own instead of vanishing.
	routes := s.routes()
	labels := make([]string, len(routes))
	for i, rt := range routes {
		labels[i] = rt.label
		if labels[i] == "" {
			labels[i] = rt.pattern
		}
	}
	httpObs := obs.NewHTTPObserver(s.reg, "sampled", labels, s.rec, cfg.logger)
	mux := http.NewServeMux()
	for i, rt := range routes {
		mux.Handle(rt.pattern, httpObs.Wrap(labels[i], rt.handler))
	}
	if cfg.pprof {
		// Deliberately uninstrumented: a 30s CPU profile in the
		// duration histogram would bury the serving tail.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// route is one entry of the daemon's route table.
type route struct {
	pattern string
	label   string // the metrics route label; "" means the pattern
	handler http.Handler
}

// routes is the daemon's route table. Streams and groups share one
// handler factory per route, each handed the hub method of its
// namespace.
func (s *server) routes() []route {
	h := s.hub
	return []route{
		{"PUT /v1/streams/{id}", "", create[createRequest](s, h.Snapshot)},
		{"POST /v1/session", "", http.HandlerFunc(s.session)},
		{"POST /v1/streams/{id}/ticks", "", s.offerTicks(h.OfferBatch)},
		{"GET /v1/streams/{id}/snapshot", "", snapshot(h.Snapshot)},
		{"GET /v1/streams/{id}/hurst", "", http.HandlerFunc(s.hurst)},
		{"GET /v1/streams/{id}/state", "", getState(h.StreamState)},
		{"PUT /v1/streams/{id}/state", "", s.putState(h.RestoreStream)},
		{"DELETE /v1/streams/{id}/state", "", detachState(h.AppendDetach)},
		{"DELETE /v1/streams/{id}", "", finish(s.finishStream)},
		{"GET /v1/streams", "", listIDs("streams", h.List)},
		{"PUT /v1/groups/{id}", "", create[createGroupRequest](s, h.GroupSnapshot)},
		{"POST /v1/groups/{id}/ticks", "", s.offerTicks(h.OfferGroupBatch)},
		{"GET /v1/groups/{id}/state", "", getState(h.GroupState)},
		{"PUT /v1/groups/{id}/state", "", s.putState(h.RestoreGroupState)},
		{"DELETE /v1/groups/{id}/state", "", detachState(h.AppendDetachGroup)},
		{"GET /v1/groups/{id}", "", snapshot(h.GroupSnapshot)},
		{"DELETE /v1/groups/{id}", "", finish(s.finishGroup)},
		{"GET /v1/groups", "", listIDs("groups", h.ListGroups)},
		{"GET /healthz", "", http.HandlerFunc(s.healthz)},
		{"GET /readyz", "", http.HandlerFunc(s.readyz)},
		{"GET /metrics", "", http.HandlerFunc(s.metrics)},
		{"GET /debug/events", "", s.rec},
		{"/", "other", http.HandlerFunc(s.notFound)},
	}
}

// registerMetrics declares every /metrics family. The hub-owned
// series keep their pre-obs names and HELP text byte for byte; they
// read from the per-scrape stats caches so one Stats() walk (and one
// rate-limited Hurst aggregate) serves the whole exposition.
func (s *server) registerMetrics() {
	r := s.reg
	r.OnScrape(func() {
		s.statsCache = s.hub.Stats()
		if hurstStale(time.Since(s.hurstAt), s.hurstWalk) {
			start := time.Now()
			s.hurstStats = s.hub.Hurst()
			s.hurstAt = time.Now()
			s.hurstWalk = s.hurstAt.Sub(start)
		}
	})
	counter := func(name, help string, v func() float64) { r.NewCounterFunc(name, help, v) }
	gauge := func(name, help string, v func() float64) { r.NewGaugeFunc(name, help, v) }

	gauge("sampled_streams", "Live sampling streams.",
		func() float64 { return float64(s.statsCache.Streams) })
	counter("sampled_streams_created_total", "Streams ever created.",
		func() float64 { return float64(s.statsCache.Created) })
	counter("sampled_streams_evicted_total", "Streams evicted after the idle TTL.",
		func() float64 { return float64(s.statsCache.Evicted) })
	counter("sampled_ticks_total", "Ticks ingested across all streams.",
		func() float64 { return float64(s.statsCache.Ticks) })
	counter("sampled_samples_kept_total", "Samples kept across all streams.",
		func() float64 { return float64(s.statsCache.Kept) })
	gauge("sampled_groups", "Live comparison groups.",
		func() float64 { return float64(s.statsCache.Groups) })
	counter("sampled_groups_created_total", "Comparison groups ever created.",
		func() float64 { return float64(s.statsCache.GroupsCreated) })
	counter("sampled_groups_evicted_total", "Comparison groups evicted after the idle TTL.",
		func() float64 { return float64(s.statsCache.GroupsEvicted) })
	counter("sampled_group_ticks_total", "Input ticks ingested by comparison groups (each fans out to every member).",
		func() float64 { return float64(s.statsCache.GroupTicks) })
	counter("sampled_group_samples_kept_total", "Samples kept across all group members.",
		func() float64 { return float64(s.statsCache.GroupKept) })
	gauge("sampled_uptime_seconds", "Seconds since the hub started.",
		func() float64 { return s.statsCache.Uptime.Seconds() })
	gauge("sampled_ticks_per_second_avg", "Lifetime average ingest rate.",
		func() float64 { return s.statsCache.TicksPerSec })

	gauge("sampled_hurst_streams_estimating", "Live streams carrying an online Hurst estimator.",
		func() float64 { return float64(s.hurstStats.Estimating) })
	// The means stay NaN until a stream resolves. They are emitted on
	// every scrape regardless — a NaN sample, not a vanishing series —
	// so scrapers never see series churn; null-for-NaN is a JSON-wire
	// convention only.
	gauge("sampled_hurst_input_h_mean", "Mean pre-sampling Hurst estimate over resolved streams.",
		func() float64 { return s.hurstStats.MeanInputH })
	gauge("sampled_hurst_kept_h_mean", "Mean post-sampling Hurst estimate over resolved streams.",
		func() float64 { return s.hurstStats.MeanKeptH })
	gauge("sampled_hurst_drift_mean", "Mean kept-minus-input Hurst drift over resolved streams.",
		func() float64 { return s.hurstStats.MeanDrift })

	frames := r.NewCounter("sampled_ingest_frames_total",
		"Binary tick-batch frames decoded (single-shot POSTs and streaming sessions).")
	bytes := r.NewCounter("sampled_ingest_bytes_total",
		"Bytes of binary tick-batch frames decoded.")
	decode := r.NewHistogramVec("sampled_ingest_decode_seconds",
		"Time to decode one ingest batch, by wire.", obs.ExpBuckets(1e-6, 4, 10), "wire")
	frameBytes := r.NewHistogramVec("sampled_ingest_frame_bytes",
		"Encoded size of one ingest batch, by wire.", obs.ExpBuckets(64, 4, 10), "wire")
	batchTicks := r.NewHistogramVec("sampled_ingest_batch_ticks",
		"Ticks per ingest batch, by wire.", obs.ExpBuckets(1, 4, 10), "wire")
	s.ingest = make(map[string]*wireInstruments, 4)
	for _, w := range []string{"json", "text", "binary", "session"} {
		s.ingest[w] = &wireInstruments{
			decode: decode.With(w),
			bytes:  frameBytes.With(w),
			ticks:  batchTicks.With(w),
		}
	}
	s.binaryFrames = &frameMeter{frames: frames, bytes: bytes, hist: s.ingest["binary"], gap: frameGap}
	s.sessionFrames = &frameMeter{frames: frames, bytes: bytes, hist: s.ingest["session"], gap: frameGap}

	version, goVersion := obs.BuildInfo()
	r.NewGaugeVec("sampled_build_info", "Build metadata; the value is always 1.",
		"version", "go_version").With(version, goVersion).Set(1)
	obs.RegisterRuntime(r, "sampled")
}

// notFound is the instrumented catch-all: unmatched paths surface as
// route="other" in the request metrics instead of bypassing them.
func (s *server) notFound(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such route"})
}

// statusFor maps the typed error chain onto an HTTP status: a
// statusError carries its own, client mistakes (bad specs, unknown
// techniques, rejected parameters) are 400s, lifecycle conflicts are
// 404/409, anything untyped is a 500.
func statusFor(err error) int {
	var pe *sampling.ParamError
	var se *statusError
	switch {
	case errors.As(err, &se):
		return se.status
	case errors.Is(err, hub.ErrStreamNotFound):
		return http.StatusNotFound
	case errors.Is(err, hub.ErrStreamExists):
		return http.StatusConflict
	case errors.Is(err, sampling.ErrUnknownTechnique),
		errors.Is(err, sampling.ErrBadSpec),
		errors.Is(err, sampling.ErrUnknownEstimator),
		errors.Is(err, hub.ErrInvalidID),
		errors.Is(err, sampling.ErrBadState),
		errors.Is(err, sampling.ErrStateVersion),
		errors.Is(err, sampling.ErrStateChecksum),
		errors.As(err, &pe):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusFor(err), map[string]string{"error": err.Error()})
}

// statusError is a refusal that is not a hub error: it carries its
// own HTTP status, which statusFor finds anywhere in an error chain.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// refuse builds a statusError from a message.
func refuse(status int, format string, args ...any) error {
	return &statusError{status, fmt.Errorf(format, args...)}
}

// ingestStatus maps a body or frame read failure onto its status: a
// body over the byte cap, or a frame whose declared batch blows the
// tick cap, is a 413, retryable by splitting the batch; anything else
// — malformed JSON or text, bad frame magic or version, checksum
// mismatch, truncation, non-finite ticks — is a 400.
func ingestStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.Is(err, wire.ErrFrameTooLarge) || errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeBodyError reports a request-body failure under ingestStatus.
func writeBodyError(w http.ResponseWriter, err error) {
	writeJSON(w, ingestStatus(err), map[string]string{"error": "body: " + err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// engineRequest is the budget/estimator part of a create body, shared
// by streams and groups; the fields map onto the engine options of the
// public API ("estimator" names an online Hurst estimation method:
// aggvar, wavelet or rs). A seed is a parameter of the spec itself.
type engineRequest struct {
	Budget    int    `json:"budget,omitempty"`
	Estimator string `json:"estimator,omitempty"`
}

// createRequest is the body of PUT /v1/streams/{id}. The spec comes in
// either wire form — the object {"technique": ..., "params": {...}} or
// the spec string "bss:rate=1e-3,L=10".
type createRequest struct {
	Spec sampling.Spec `json:"spec"`
	engineRequest
}

// createGroupRequest is the body of PUT /v1/groups/{id}: the member
// specs (each in either wire form, string or object) plus the same
// budget/estimator options as a stream create — with "estimator"
// buying the whole group one shared input-side estimator and one
// kept-side estimator per member.
type createGroupRequest struct {
	Specs []sampling.Spec `json:"specs"`
	engineRequest
}

// createBody is a create request: its engine options, and how it adds
// itself to the hub.
type createBody interface {
	options(w http.ResponseWriter) ([]sampling.Option, bool)
	add(h *hub.Hub, id string, opts []sampling.Option) error
}

func (req createRequest) add(h *hub.Hub, id string, opts []sampling.Option) error {
	return h.Create(id, req.Spec, opts...)
}

func (req createGroupRequest) add(h *hub.Hub, id string, opts []sampling.Option) error {
	return h.CreateGroup(id, req.Specs, opts...)
}

// decodeStrict decodes exactly one JSON value from r, rejecting unknown
// object fields and trailing input — a concatenated second value means
// the client built the request wrong, and dropping it silently would
// corrupt ingest counts.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// options maps the shared budget/estimator request fields onto
// engine options, reporting the 400 itself on a bad budget; the second
// return is false when a response has already been written.
func (req engineRequest) options(w http.ResponseWriter) ([]sampling.Option, bool) {
	var opts []sampling.Option
	// 0 is the documented "unlimited" default; anything else below 1 is
	// a client mistake and must not silently create an unbounded stream.
	if req.Budget < 0 {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": fmt.Sprintf("budget %d must be >= 0", req.Budget)})
		return nil, false
	}
	if req.Budget > 0 {
		opts = append(opts, sampling.WithBudget(req.Budget))
	}
	if req.Estimator != "" {
		opts = append(opts, sampling.WithEstimator(estimate.Method(req.Estimator)))
	}
	return opts, true
}

// create builds the create handler of a stream or group (PUT
// /v1/{streams,groups}/{id}): the body decodes strictly into R, which
// adds itself to the hub, and the new live document is the 201 body.
func create[R createBody, T any](s *server, doc func(string) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		if err := decodeStrict(http.MaxBytesReader(w, r.Body, s.maxBody), &req); err != nil {
			writeBodyError(w, err)
			return
		}
		opts, ok := req.options(w)
		if !ok {
			return
		}
		id := r.PathValue("id")
		if err := req.add(s.hub, id, opts); err != nil {
			writeError(w, err)
			return
		}
		d, err := doc(id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, d)
	}
}

// readTicks parses one ingest batch from the request body. Two body
// formats: a JSON array of numbers (Content-Type application/json) and
// newline- or whitespace-separated decimal floats (anything else) — the
// latter is what `tr` and `awk` pipelines produce. On a malformed body
// readTicks writes the 400/413 itself and returns ok=false.
func (s *server) readTicks(w http.ResponseWriter, r *http.Request, isJSON bool) (values []float64, ok bool) {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if isJSON {
		// Decode through pointers so a null element — which plain
		// []float64 silently turns into a phantom 0.0 tick — is
		// distinguishable and rejected.
		var boxed []*float64
		if err := decodeStrict(body, &boxed); err != nil {
			writeBodyError(w, err)
			return nil, false
		}
		values = make([]float64, len(boxed))
		for i, p := range boxed {
			if p == nil {
				writeJSON(w, http.StatusBadRequest,
					map[string]string{"error": fmt.Sprintf("tick %d: null is not a tick value", i)})
				return nil, false
			}
			values[i] = *p
		}
		return values, true
	}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest,
				map[string]string{"error": fmt.Sprintf("tick %d: %v", len(values), err)})
			return nil, false
		}
		// ParseFloat accepts NaN/Inf spellings, but one NaN poisons
		// the stream's running moments for the rest of its life.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			writeJSON(w, http.StatusBadRequest,
				map[string]string{"error": fmt.Sprintf("tick %d: non-finite value %v", len(values), v)})
			return nil, false
		}
		values = append(values, v)
	}
	if err := sc.Err(); err != nil {
		writeBodyError(w, err)
		return nil, false
	}
	return values, true
}

// offerTicks builds the tick-ingest handler of a stream or group (offer
// is OfferBatch or OfferGroupBatch). Batches for one id must be posted
// sequentially. A Content-Type of application/x-tickbatch switches the
// body to binary frames (offerFrames); JSON and text bodies are timed
// into the ingest histograms under wire="json" or "text". A group's
// "kept" counts samples across all members.
func (s *server) offerTicks(offer func(string, []float64) (int, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if isTickBatch(r) {
			s.offerFrames(w, r, offer)
			return
		}
		wireName := "text"
		if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
			wireName = "json"
		}
		start := time.Now()
		values, ok := s.readTicks(w, r, wireName == "json")
		if !ok {
			return
		}
		s.ingest[wireName].observe(time.Since(start), r.ContentLength, len(values))
		kept, err := offer(r.PathValue("id"), values)
		if err != nil {
			writeError(w, err)
			return
		}
		writeIngest(w, ingestResponse{SessionTotals: cluster.SessionTotals{Frames: 1, Accepted: int64(len(values)), Kept: int64(kept)}}, nil)
	}
}

// isTickBatch reports whether the request body is binary tick-batch
// frames.
func isTickBatch(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentType)
}

// decoderPool hands out frame decoders whose read-ahead windows and
// tick buffers stay warm across requests and sessions, all held to one
// frame-declared tick cap.
type decoderPool struct {
	maxTicks int
	pool     sync.Pool
}

// get takes a decoder for one request body; return it with put.
func (p *decoderPool) get(r io.Reader) *wire.Decoder {
	if d, ok := p.pool.Get().(*wire.Decoder); ok {
		d.Reset(r)
		return d
	}
	return wire.NewDecoder(r, p.maxTicks)
}

func (p *decoderPool) put(d *wire.Decoder) { p.pool.Put(d) }

// ingestResponse is the body of every tick ingest: what the body's
// batches added up to — a JSON or text body is one batch, a binary
// body one batch per frame. A failed ingest answers the same counts
// beside its error: ingest is not transactional, and the batches
// before the failure stay ingested.
type ingestResponse struct {
	Error string `json:"error,omitempty"`
	cluster.SessionTotals
}

// writeIngest answers an ingest: 200 with its totals, or err's status
// with the totals so far.
func writeIngest(w http.ResponseWriter, resp ingestResponse, err error) {
	status := http.StatusOK
	if err != nil {
		status, resp.Error = statusFor(err), err.Error()
	}
	writeJSON(w, status, resp)
}

// errAnonymousFrame refuses a session frame that names no stream.
var errAnonymousFrame = refuse(http.StatusBadRequest, "session frame carries no stream id")

// readFrames reads frames from dec until the body ends, handing each
// frame's embedded id ("" for none) and ticks (valid until the next
// read) to offer, which returns the samples the frame kept. It returns
// the totals of the frames offer took and the first error: a read
// failure, wrapped in a statusError under ingestStatus, or offer's own.
//
// With a meter, the frames offer took go into its counters, and the
// frames its gap picks into its histograms. Only a picked frame reads
// the clock: it is buffered whole first, untimed, so its decode time
// leaves out the wait for the sender. A nil meter records nothing.
func readFrames(dec *wire.Decoder, m *frameMeter, offer func(id string, values []float64) (int, error)) (resp ingestResponse, err error) {
	var frames, bytes int64 // taken since the last add to m's counters
	gap := 0                // frames to the next sampled one; only falls without a meter
	if m != nil {
		gap = m.gap()
	}
	for {
		gap--
		timed := gap == 0 && dec.Buffer() == nil // else ReadFrame returns Buffer's error
		var start time.Time
		if timed {
			start = time.Now()
		}
		id, values, rerr := dec.ReadFrame()
		var decode time.Duration
		if timed {
			decode = time.Since(start)
		}
		if rerr != nil {
			if rerr != io.EOF {
				err = &statusError{ingestStatus(rerr), fmt.Errorf("frame: %w", rerr)}
			}
			break
		}
		kept, oerr := offer(id, values)
		if oerr != nil {
			err = oerr
			break
		}
		resp.Frames++
		resp.Accepted += int64(len(values))
		resp.Kept += int64(kept)
		frames++
		bytes += dec.FrameBytes()
		if timed {
			m.hist.observe(decode, dec.FrameBytes(), len(values))
			m.add(&frames, &bytes)
			gap = m.gap()
		}
	}
	if m != nil {
		m.add(&frames, &bytes)
	}
	return resp, err
}

// add moves a body's unrecorded frame and byte counts into the
// counters.
func (m *frameMeter) add(frames, bytes *int64) {
	m.frames.Add(uint64(*frames))
	m.bytes.Add(uint64(*bytes))
	*frames, *bytes = 0, 0
}

// requireTickBatch refuses, with a 415, a session body that is not
// binary tick-batch frames; it reports whether the body is.
func requireTickBatch(w http.ResponseWriter, r *http.Request) bool {
	if isTickBatch(r) {
		return true
	}
	writeJSON(w, http.StatusUnsupportedMediaType,
		map[string]string{"error": "session bodies are binary tick-batch frames; set Content-Type " + wire.ContentType})
	return false
}

// offerFrames ingests a body of binary frames into the URL-addressed
// stream (or group, via the offer argument). Each frame decodes into a
// pooled []float64 handed straight to OfferBatch; a frame-embedded id,
// when present, must match the URL. Nothing is echoed per frame — one
// summary response covers the whole body, and a failure reports how
// far the body got, since the frames before it stay ingested.
func (s *server) offerFrames(w http.ResponseWriter, r *http.Request, offer func(string, []float64) (int, error)) {
	id := r.PathValue("id")
	dec := s.decoders.get(http.MaxBytesReader(w, r.Body, s.maxBody))
	defer s.decoders.put(dec)
	resp, err := readFrames(dec, s.binaryFrames, func(fid string, values []float64) (int, error) {
		if fid != "" && fid != id {
			return 0, refuse(http.StatusBadRequest, "frame names stream %q but the URL names %q", fid, id)
		}
		return offer(id, values)
	})
	if err == nil && resp.Frames == 0 {
		// An empty body still names a stream; surface a 404 for a ghost
		// the way an empty text body does.
		_, err = offer(id, nil)
	}
	writeIngest(w, resp, err)
}

// session is the persistent streaming ingest mode: one long-lived POST
// whose body is an unbounded sequence of binary frames, each routed to
// the stream its embedded id names — connection setup, routing and
// response costs are paid once per session instead of once per batch.
// Frames are offered as they arrive, so observers see the stream grow
// mid-session; the response (totals, or the first error) comes when
// the client closes its body. The body is deliberately not size-capped
// — sessions are long-lived by design — but every frame is still held
// to the frame-declared tick cap, which bounds memory. Sessions are
// not transactional: frames before a mid-session error stay ingested,
// and the error body reports how far the session got.
func (s *server) session(w http.ResponseWriter, r *http.Request) {
	if !requireTickBatch(w, r) {
		return
	}
	dec := s.decoders.get(r.Body)
	defer s.decoders.put(dec)
	resp, err := readFrames(dec, s.sessionFrames, s.offerSession)
	writeIngest(w, resp, err)
}

// offerSession offers one session frame to the stream its embedded id
// names.
func (s *server) offerSession(id string, values []float64) (int, error) {
	if id == "" {
		return 0, errAnonymousFrame
	}
	return s.hub.OfferBatch(id, values)
}

// snapshot builds the live-document handler of a stream (its summary)
// or a group (its comparison: the unsampled input reference plus
// per-technique summaries and fidelity scores).
func snapshot[T any](get func(string) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		doc, err := get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, doc)
	}
}

// hurst serves the stream's live Hurst block alone — the document a
// self-similarity dashboard polls. A stream created without an
// estimator has no such subresource: 404, same as a missing stream,
// with a message saying which of the two it was.
func (s *server) hurst(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sum, err := s.hub.Snapshot(id)
	if err != nil {
		writeError(w, err)
		return
	}
	if sum.Hurst == nil {
		writeJSON(w, http.StatusNotFound,
			map[string]string{"error": fmt.Sprintf("stream %q has no estimator (create it with \"estimator\")", id)})
		return
	}
	writeJSON(w, http.StatusOK, sum.Hurst)
}

// finishResponse is the body of DELETE /v1/streams/{id}: the final
// summary plus the samples only decidable at end of stream.
type finishResponse struct {
	Summary sampling.Summary  `json:"summary"`
	Tail    []sampling.Sample `json:"tail"`
}

// finish builds the finish handler of a stream or group (DELETE
// /v1/{streams,groups}/{id}); end finalizes the id and renders the
// response. The id is removed even when finalization fails (e.g. a
// fixed-size simple random draw over a shorter stream): the DELETE
// itself succeeded, and the summaries carry the error for the client
// to inspect. Only a miss is an error response.
func finish[T any](end func(string) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		resp, err := end(r.PathValue("id"))
		if errors.Is(err, hub.ErrStreamNotFound) {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *server) finishStream(id string) (finishResponse, error) {
	tail, sum, err := s.hub.Finish(id)
	return finishResponse{Summary: sum, Tail: orEmpty(tail)}, err
}

// orEmpty serves an empty tail as [], not null.
func orEmpty(tail []sampling.Sample) []sampling.Sample {
	if tail == nil {
		return []sampling.Sample{}
	}
	return tail
}

// listIDs builds a collection handler (GET /v1/streams, /v1/groups):
// the sorted live ids under key, plus their count.
func listIDs(key string, list func() []string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ids := list()
		if ids == nil {
			ids = []string{}
		}
		writeJSON(w, http.StatusOK, map[string]any{key: ids, "count": len(ids)})
	}
}

// finishGroupResponse is the body of DELETE /v1/groups/{id}: the final
// comparison plus each member's end-of-stream samples, in member order.
type finishGroupResponse struct {
	Comparison sampling.Comparison `json:"comparison"`
	Tails      [][]sampling.Sample `json:"tails"`
}

// finishGroup ends a group, with each member's tail in member order.
func (s *server) finishGroup(id string) (finishGroupResponse, error) {
	tails, cmp, err := s.hub.FinishGroup(id)
	resp := finishGroupResponse{Comparison: cmp, Tails: make([][]sampling.Sample, len(tails))}
	for i, tail := range tails {
		resp.Tails[i] = orEmpty(tail)
	}
	return resp, err
}

// metrics renders the whole exposition from the obs registry —
// counters are cumulative and monotonic, so rate() over
// sampled_ticks_total gives live ingest throughput. The registry's
// scrape hook refreshes the hub stats cache first, so every series in
// one scrape reads the same Stats() walk.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WriteText(w)
}
