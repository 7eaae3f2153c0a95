// Command sampleload drives a sampling service with self-similar
// traffic and reports the achieved ingest rate — the measuring stick
// for the hot path. It creates N concurrent streams, feeds each a
// long-range-dependent series (exact fGn or a heavy-tailed ON/OFF
// superposition) in batches, and prints the aggregate ticks/sec.
//
// Two targets:
//
//	sampleload -direct                      # in-process against a sampling/hub.Hub
//	sampleload -addr localhost:8080         # over HTTP against a running sampled daemon
//
// The traffic is generated once (a base series shared by all streams,
// phase-rotated per stream so streams do not tick in lockstep) and the
// ingest phase alone is timed, so the report measures the service, not
// the generator. Every offer also lands in a client-side latency
// histogram, and the report includes per-request p50/p95/p99 for the
// wire driven; -log-format/-log-level control structured diagnostics.
//
// With an online estimator attached (-estimator, default aggvar) every
// stream also tracks the Hurst parameter of the traffic it ingests and
// of the samples its technique keeps, and the run reports the aggregate
// pre- vs post-sampling H and their drift — the paper's preservation
// analysis as a live measurement. -estimator off disables it (and the
// per-tick estimation cost) for pure throughput runs.
//
// With -compare, every stream becomes a comparison group: the
// ';'-separated specs all consume the same traffic side by side and the
// run reports a per-technique fidelity table (kept ratio, mean and
// variance bias against the unsampled input, Hurst drift) instead of a
// single-technique drift block — the paper's cross-technique comparison
// as a load test.
//
// Examples:
//
//	sampleload -direct -streams 256 -ticks 100000 -spec "bss:interval=100,L=5"
//	sampleload -addr localhost:8080 -streams 32 -ticks 20000 -traffic onoff
//	sampleload -direct -streams 64 -spec "systematic:interval=100" -estimator wavelet
//	sampleload -direct -streams 8 -compare "systematic:interval=100;bss:interval=100,L=5,eps=1.0"
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/lrd"
	"repro/internal/obs"
	"repro/internal/traffic"
	"repro/sampling"
	"repro/sampling/cluster"
	"repro/sampling/estimate"
	"repro/sampling/hub"
	"repro/sampling/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sampleload:", err)
		os.Exit(1)
	}
}

// loadConfig parameterizes one load run.
type loadConfig struct {
	direct    bool
	addr      string
	streams   int
	ticks     int // per stream
	batch     int
	workers   int
	spec      string
	compare   string // ";"-separated specs; non-empty switches to comparison groups
	wire      string // HTTP ingest encoding: json, text, binary or session ("" = json)
	traffic   string // "fgn" or "onoff"
	hurst     float64
	seed      uint64
	estimator string // online Hurst estimator method; "" or "off" disables

	// logger carries the run's structured diagnostics (milestones at
	// debug, failures at warn). nil silences them.
	logger *slog.Logger
}

// log returns the config's logger, substituting a discard logger so
// call sites never nil-check.
func (c loadConfig) log() *slog.Logger {
	if c.logger == nil {
		return slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c.logger
}

// wireName resolves the config's wire selection, defaulting to json so
// zero-value configs (and -direct runs, where the wire is moot) behave
// as before.
func (c loadConfig) wireName() string {
	if c.wire == "" {
		return "json"
	}
	return c.wire
}

// wireLabel names the transport for the latency report: the HTTP wire,
// or "direct" for in-process runs where no wire is involved.
func (c loadConfig) wireLabel() string {
	if c.direct {
		return "direct"
	}
	return c.wireName()
}

// checkWire rejects wire selections that cannot work before any stream
// exists.
func (c loadConfig) checkWire() error {
	switch c.wireName() {
	case "json", "text", "binary", "session":
	default:
		return fmt.Errorf("unknown wire %q (json, text, binary or session)", c.wire)
	}
	if c.direct && c.wire != "" && c.wire != "json" {
		return fmt.Errorf("-wire %s selects an HTTP encoding; it has no meaning with -direct", c.wire)
	}
	if c.compare != "" && c.wireName() == "session" {
		return fmt.Errorf("-wire session routes frames by stream id; comparison groups are not addressable in a session (use json, text or binary)")
	}
	return nil
}

// estimatorMethod resolves the config's estimator selection: the method
// to attach, or "" when estimation is off.
func (c loadConfig) estimatorMethod() estimate.Method {
	if c.estimator == "" || c.estimator == "off" {
		return ""
	}
	return estimate.Method(c.estimator)
}

// driftReport aggregates the per-stream Hurst blocks of one run: the
// mean pre-sampling (input) H, the mean post-sampling (kept) H, and the
// mean drift between them, each over the streams where the estimate
// resolved.
type driftReport struct {
	method                estimate.Method
	inputN, keptN, driftN int
	inputH, keptH, driftH float64
}

// loadResult is what a run achieved.
type loadResult struct {
	ticks   int64
	kept    int64
	elapsed time.Duration
	drift   *driftReport   // nil when the run had no estimator or drove groups
	lat     *obs.Histogram // client-side per-request (per-offer) latency

	// specs are the run's techniques; tallies folds each one's live
	// readings over every id, and seen is the ids' summed input ticks.
	specs   []sampling.Spec
	tallies []tally
	seen    int64
}

// latencyBuckets spans 1µs..64s exponentially — wide enough for both
// in-process offers and HTTP round trips.
func latencyBuckets() []float64 { return obs.ExpBuckets(1e-6, 2, 26) }

// timedOffer wraps a driver's offer with the client-side latency
// histogram: one observation per request (or per in-process batch).
func timedOffer(lat *obs.Histogram, offer func(string, []float64) (int, error)) func(string, []float64) (int, error) {
	return func(id string, batch []float64) (int, error) {
		start := time.Now()
		kept, err := offer(id, batch)
		lat.Observe(time.Since(start).Seconds())
		return kept, err
	}
}

// latencyLine renders the p50/p95/p99 report for one run's histogram,
// or "" when nothing was observed.
func latencyLine(lat *obs.Histogram, wire string) string {
	if lat == nil || lat.Count() == 0 {
		return ""
	}
	q := func(p float64) time.Duration {
		return time.Duration(lat.Quantile(p) * float64(time.Second)).Round(time.Microsecond)
	}
	return fmt.Sprintf("latency:  p50 %v  p95 %v  p99 %v per request (%s wire, %d requests)",
		q(0.50), q(0.95), q(0.99), wire, lat.Count())
}

func (r loadResult) ticksPerSec() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.ticks) / r.elapsed.Seconds()
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sampleload", flag.ContinueOnError)
	cfg := loadConfig{}
	fs.BoolVar(&cfg.direct, "direct", false, "drive an in-process hub instead of a daemon")
	fs.StringVar(&cfg.addr, "addr", "localhost:8080", "sampled daemon address (ignored with -direct)")
	fs.IntVar(&cfg.streams, "streams", 64, "concurrent streams")
	fs.IntVar(&cfg.ticks, "ticks", 100000, "ticks per stream")
	fs.IntVar(&cfg.batch, "batch", 512, "ticks per ingest batch")
	fs.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "ingest goroutines")
	fs.StringVar(&cfg.spec, "spec", "systematic:interval=100", "sampler spec for every stream")
	fs.StringVar(&cfg.compare, "compare", "",
		`";"-separated sampler specs: drive comparison groups instead of single-technique streams and report a per-technique fidelity table (e.g. "systematic:interval=100;bss:interval=100,L=5,eps=1.0")`)
	fs.StringVar(&cfg.wire, "wire", "json",
		"HTTP ingest encoding: json, text, binary (one tick-batch frame per POST) or session (one long-lived frame stream per sampling stream)")
	fs.StringVar(&cfg.traffic, "traffic", "fgn", "traffic model: fgn or onoff")
	fs.Float64Var(&cfg.hurst, "hurst", 0.8, "Hurst parameter of the generated traffic")
	fs.Uint64Var(&cfg.seed, "seed", 1, "traffic generator seed")
	fs.StringVar(&cfg.estimator, "estimator", "aggvar",
		"per-stream online Hurst estimator (aggvar, wavelet, rs) or off")
	logFormat := fs.String("log-format", "text", "diagnostic log format: text or json")
	logLevel := fs.String("log-level", "warn", "minimum diagnostic log level: debug, info, warn or error (run milestones are debug)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	cfg.logger = logger
	if err := cfg.checkWire(); err != nil {
		return err
	}
	_, err = runLoad(cfg, out)
	return err
}

// driver abstracts the two targets, the in-process hub and the HTTP
// daemon, each bound at construction to one namespace: streams, or
// comparison groups under -compare. A stream is the one-spec case of
// a group: create takes the member specs, and read returns the live
// comparison, for a stream one member carrying its summary and no
// fidelity scores. Per-id call order matters (ticks must stay
// sequential); different ids are driven fully in parallel. drain
// flushes transport state after the ingest phase — the session wire
// closes its long-lived connections there and folds their kept
// totals in; every other target is a no-op.
type driver interface {
	create(id string, specs []sampling.Spec, estimator estimate.Method) error
	offer(id string, batch []float64) (kept int, err error)
	read(id string) (sampling.Comparison, error)
	finish(id string) error
	drain() (kept int64, err error)
}

// asComparison is a stream's summary in the shape read returns.
func asComparison(sum sampling.Summary) sampling.Comparison {
	return sampling.Comparison{Seen: sum.Seen, Members: []sampling.TechniqueReport{{Summary: sum}}}
}

type directDriver struct {
	hub    *hub.Hub
	groups bool
}

func (d directDriver) create(id string, specs []sampling.Spec, estimator estimate.Method) error {
	var opts []sampling.Option
	if estimator != "" {
		opts = append(opts, sampling.WithEstimator(estimator))
	}
	if d.groups {
		return d.hub.CreateGroup(id, specs, opts...)
	}
	return d.hub.Create(id, specs[0], opts...)
}

func (d directDriver) offer(id string, batch []float64) (int, error) {
	if d.groups {
		return d.hub.OfferGroupBatch(id, batch)
	}
	return d.hub.OfferBatch(id, batch)
}

func (d directDriver) read(id string) (sampling.Comparison, error) {
	if d.groups {
		return d.hub.GroupSnapshot(id)
	}
	sum, err := d.hub.Snapshot(id)
	return asComparison(sum), err
}

func (d directDriver) drain() (int64, error) { return 0, nil }

func (d directDriver) finish(id string) error {
	// A deferred engine error (e.g. a fixed-size draw over a shorter
	// stream) is a property of the workload, not a harness failure —
	// the daemon's DELETE tolerates it the same way. Only a missing
	// stream or group means the run itself went wrong.
	var err error
	if d.groups {
		_, _, err = d.hub.FinishGroup(id)
	} else {
		_, _, err = d.hub.Finish(id)
	}
	if errors.Is(err, hub.ErrStreamNotFound) {
		return err
	}
	return nil
}

type httpDriver struct {
	base   string
	groups bool
	client *http.Client
	wire   string

	// Ingest encoders reuse buffers: bufs pools the per-batch encode
	// buffers of the text and binary wires, sessions holds one
	// long-lived frame stream per sampling stream for the session wire
	// (opened lazily on first offer, closed and harvested by drain).
	// sessClient has no timeout — a session lives as long as its
	// stream's ingest does.
	bufs       sync.Pool
	sessMu     sync.Mutex
	sessions   map[string]*cluster.Session
	sessClient *http.Client
}

// url addresses id in the driver's namespace.
func (d *httpDriver) url(id string) string {
	if d.groups {
		return d.base + "/v1/groups/" + id
	}
	return d.base + "/v1/streams/" + id
}

func (d *httpDriver) do(method, url string, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// encodeBatch renders one tick batch under the configured wire into
// buf — reused across calls, so steady-state ingest encodes without
// allocating — and returns the bytes plus the content type to send
// them under. Per-POST binary frames leave the id empty: the URL
// already routes them, and the server accepts an empty embedded id.
func (d *httpDriver) encodeBatch(buf []byte, batch []float64) ([]byte, string, error) {
	switch d.wire {
	case "text":
		for i, v := range batch {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		return buf, "text/plain", nil
	case "binary":
		buf, err := wire.AppendFrame(buf, "", batch)
		return buf, wire.ContentType, err
	default: // json
		buf = append(buf, '[')
		for i, v := range batch {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, ']')
		return buf, "application/json", nil
	}
}

func (d *httpDriver) create(id string, specs []sampling.Spec, estimator estimate.Method) error {
	req := map[string]any{"spec": specs[0]}
	if d.groups {
		req = map[string]any{"specs": specs}
	}
	if estimator != "" {
		req["estimator"] = string(estimator)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	_, err = d.do(http.MethodPut, d.url(id), "application/json", body)
	return err
}

// offer posts one encoded batch, or with the session wire writes it as
// one frame into the stream's long-lived session. Session kept counts
// are only known when the session closes, so a session offer reports 0
// and drain folds the daemon's total in. The encode buffer comes from
// (and returns to) the pool; it is free for reuse once do returns
// because the request body has been fully written by then.
func (d *httpDriver) offer(id string, batch []float64) (int, error) {
	if d.wire == "session" {
		s, err := d.session(id)
		if err != nil {
			return 0, err
		}
		return 0, s.Encode(id, batch)
	}
	bp := d.bufs.Get().(*[]byte)
	defer d.bufs.Put(bp)
	buf, ctype, err := d.encodeBatch((*bp)[:0], batch)
	if err != nil {
		return 0, err
	}
	*bp = buf
	data, err := d.do(http.MethodPost, d.url(id)+"/ticks", ctype, buf)
	if err != nil {
		return 0, err
	}
	var resp cluster.SessionTotals
	err = json.Unmarshal(data, &resp)
	return int(resp.Kept), err
}

// session returns the live session for id, opening it on first use.
// hammer guarantees a single writer per id, so the session needs no
// lock; the map does.
func (d *httpDriver) session(id string) (*cluster.Session, error) {
	d.sessMu.Lock()
	defer d.sessMu.Unlock()
	if s, ok := d.sessions[id]; ok {
		return s, nil
	}
	s, err := cluster.OpenSession(context.Background(), d.sessClient, d.base)
	if err != nil {
		return nil, err
	}
	d.sessions[id] = s
	return s, nil
}

// read fetches the live document: a group's comparison, or a stream's
// snapshot.
func (d *httpDriver) read(id string) (sampling.Comparison, error) {
	url := d.url(id)
	if !d.groups {
		url += "/snapshot"
	}
	data, err := d.do(http.MethodGet, url, "", nil)
	if err != nil {
		return sampling.Comparison{}, err
	}
	if d.groups {
		var cmp sampling.Comparison
		err := json.Unmarshal(data, &cmp)
		return cmp, err
	}
	var sum sampling.Summary
	err = json.Unmarshal(data, &sum)
	return asComparison(sum), err
}

// drain closes every live session and folds the daemon's totals in. A
// no-op for every other wire (and for runs that never offered).
func (d *httpDriver) drain() (int64, error) {
	d.sessMu.Lock()
	sessions := d.sessions
	d.sessions = map[string]*cluster.Session{}
	d.sessMu.Unlock()
	var kept int64
	var errs []error
	for id, s := range sessions {
		t, err := s.Close()
		if err != nil {
			errs = append(errs, fmt.Errorf("session %s: %w", id, err))
			continue
		}
		kept += t.Kept
	}
	return kept, errors.Join(errs...)
}

func (d *httpDriver) finish(id string) error {
	_, err := d.do(http.MethodDelete, d.url(id), "", nil)
	return err
}

// baseSeries generates the shared traffic series. Length is capped at
// 2^18 ticks; longer streams replay it cyclically — the load generator
// measures ingest, and 262k ticks of exact fGn is plenty of burstiness
// per revolution.
func baseSeries(cfg loadConfig) ([]float64, error) {
	n := cfg.ticks
	if n > 1<<18 {
		n = 1 << 18
	}
	if n < 16 {
		n = 16
	}
	rng := dist.NewRand(cfg.seed)
	switch cfg.traffic {
	case "fgn":
		gen, err := lrd.NewFGN(cfg.hurst, n, 10, 2)
		if err != nil {
			return nil, err
		}
		return gen.Generate(rng), nil
	case "onoff":
		alpha := lrd.AlphaFromH(cfg.hurst)
		return traffic.GenerateOnOff(traffic.OnOffConfig{
			Sources:  32,
			AlphaOn:  alpha,
			AlphaOff: alpha,
			MeanOn:   10,
			MeanOff:  20,
			Rate:     1,
			Ticks:    n,
		}, rng)
	default:
		return nil, fmt.Errorf("unknown traffic model %q (fgn or onoff)", cfg.traffic)
	}
}

// specAcceptsSeed probes whether the spec's technique takes a seed
// parameter, by building a throwaway engine with one: randomized
// techniques accept it, deterministic ones reject it with a
// *sampling.ParamError.
func specAcceptsSeed(spec sampling.Spec) bool {
	_, err := sampling.New(spec.With("seed", "1"))
	var pe *sampling.ParamError
	return !(errors.As(err, &pe) && strings.Contains(pe.Param, "seed"))
}

// specs parses the run's sampler specs: the one -spec of a streams
// run, or the ';'-separated -compare list (two or more) of a groups
// run.
func (c loadConfig) specs() ([]sampling.Spec, error) {
	if c.compare == "" {
		spec, err := sampling.Parse(c.spec)
		return []sampling.Spec{spec}, err
	}
	var specs []sampling.Spec
	for _, s := range strings.Split(c.compare, ";") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		spec, err := sampling.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("-compare: %w", err)
		}
		specs = append(specs, spec)
	}
	if len(specs) < 2 {
		return nil, fmt.Errorf("-compare needs at least two ';'-separated specs, got %d", len(specs))
	}
	return specs, nil
}

// mean is a running mean over the readings that resolved (not NaN).
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(v float64) {
	if !math.IsNaN(v) {
		m.sum += v
		m.n++
	}
}

func (m mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// tally folds one technique's live readings over every id of a run.
type tally struct {
	kept                                    int64
	meanBias, varBias, inputH, keptH, drift mean
}

func (t *tally) add(m sampling.TechniqueReport) {
	t.kept += int64(m.Summary.Kept)
	t.meanBias.add(m.Fidelity.MeanBias)
	t.varBias.add(m.Fidelity.VarianceBias)
	if hs := m.Summary.Hurst; hs != nil {
		if hs.Input.OK {
			t.inputH.add(hs.Input.H)
		}
		if hs.Kept.OK {
			t.keptH.add(hs.Kept.H)
		}
		t.drift.add(hs.Drift)
	}
}

// runLoad creates the streams — or, with -compare, the comparison
// groups — hammers the target from cfg.workers goroutines, reads every
// id's live document, finishes every id and reports what the ingest
// phase (creation and teardown excluded) achieved: for streams the
// mean pre- vs post-sampling Hurst drift, for groups a per-technique
// fidelity table (kept ratio, mean and variance bias against the
// unsampled input, Hurst drift) aggregated over the groups.
func runLoad(cfg loadConfig, out io.Writer) (loadResult, error) {
	if cfg.streams < 1 || cfg.ticks < 1 || cfg.batch < 1 || cfg.workers < 1 {
		return loadResult{}, fmt.Errorf("streams, ticks, batch and workers must all be >= 1")
	}
	specs, err := cfg.specs()
	if err != nil {
		return loadResult{}, err
	}
	method := cfg.estimatorMethod()
	if method != "" {
		// Fail on a typo'd method before any stream exists.
		if _, err := estimate.New(method); err != nil {
			return loadResult{}, err
		}
	}
	base, err := baseSeries(cfg)
	if err != nil {
		return loadResult{}, err
	}

	groups := cfg.compare != ""
	d, mode := newDriver(cfg)
	prefix := "load"
	if groups {
		prefix = "cmp"
		fmt.Fprintf(out, "target:   %s, %d groups x %d ticks x %d techniques, batch %d, %d workers\n",
			mode, cfg.streams, cfg.ticks, len(specs), cfg.batch, cfg.workers)
	} else {
		fmt.Fprintf(out, "target:   %s, %d streams x %d ticks, batch %d, %d workers, spec %s\n",
			mode, cfg.streams, cfg.ticks, cfg.batch, cfg.workers, specs[0])
	}
	fmt.Fprintf(out, "traffic:  %s (H=%.2f), base series %d ticks\n", cfg.traffic, cfg.hurst, len(base))

	seedable := make([]bool, len(specs))
	for i, spec := range specs {
		seedable[i] = specAcceptsSeed(spec)
	}
	ids := make([]string, cfg.streams)
	for g := range ids {
		ids[g] = fmt.Sprintf("%s-%05d", prefix, g)
		// Randomized techniques get a distinct seed per id and member —
		// without one, copies of the default seed would keep/drop in
		// lockstep and the load would be degenerate. Seedless techniques
		// (which reject the parameter) keep the spec as-is.
		members := make([]sampling.Spec, len(specs))
		for i, spec := range specs {
			members[i] = spec
			if seedable[i] {
				members[i] = spec.With("seed", fmt.Sprint(cfg.seed+uint64(g*len(specs)+i)))
			}
		}
		if err := d.create(ids[g], members, method); err != nil {
			return loadResult{}, fmt.Errorf("creating %s: %w", ids[g], err)
		}
	}
	cfg.log().Debug("created", "count", len(ids), "techniques", len(specs), "wire", cfg.wireLabel())

	res := loadResult{lat: obs.NewBareHistogram(latencyBuckets()), specs: specs, tallies: make([]tally, len(specs))}
	res.ticks, res.kept, res.elapsed, err = hammer(cfg, ids, base, timedOffer(res.lat, d.offer))
	if err != nil {
		return loadResult{}, err
	}
	// The session wire only reports kept totals when its connections
	// close; drain inside the timed window so ticks/s pays the full
	// transport cost, end of stream included.
	dstart := time.Now()
	dkept, err := d.drain()
	if err != nil {
		return loadResult{}, err
	}
	res.kept += dkept
	res.elapsed += time.Since(dstart)
	cfg.log().Debug("ingest done", "ticks", res.ticks, "kept", res.kept, "elapsed", res.elapsed)

	// Read every live document before teardown: finish removes the ids.
	for _, id := range ids {
		cmp, err := d.read(id)
		if err != nil {
			return loadResult{}, fmt.Errorf("reading %s: %w", id, err)
		}
		if len(cmp.Members) != len(specs) {
			return loadResult{}, fmt.Errorf("%s has %d members, want %d", id, len(cmp.Members), len(specs))
		}
		res.seen += int64(cmp.Seen)
		for i, m := range cmp.Members {
			res.tallies[i].add(m)
		}
	}
	for _, id := range ids {
		if err := d.finish(id); err != nil {
			return loadResult{}, fmt.Errorf("finishing %s: %w", id, err)
		}
	}

	if t := res.tallies[0]; !groups && method != "" {
		res.drift = &driftReport{method: method,
			inputN: t.inputH.n, keptN: t.keptH.n, driftN: t.drift.n,
			inputH: t.inputH.value(), keptH: t.keptH.value(), driftH: t.drift.value()}
	}
	res.report(out, cfg)
	return res, nil
}

// report prints the ingest, kept and latency lines, then a streams
// run's Hurst block — the mean pre- and post-sampling H against the
// generator's, and their drift — or a groups run's fidelity table: one
// row per technique, each score the mean over the groups where it
// resolved.
func (r loadResult) report(out io.Writer, cfg loadConfig) {
	if cfg.compare != "" {
		fmt.Fprintf(out, "ingest:   %d input ticks in %v -> %.3g ticks/s (x%d fan-out: %.3g engine ticks/s)\n",
			r.ticks, r.elapsed.Round(time.Millisecond), r.ticksPerSec(), len(r.specs), r.ticksPerSec()*float64(len(r.specs)))
		fmt.Fprintf(out, "kept:     %d samples across all techniques\n", r.kept)
	} else {
		fmt.Fprintf(out, "ingest:   %d ticks in %v -> %.3g ticks/s aggregate\n",
			r.ticks, r.elapsed.Round(time.Millisecond), r.ticksPerSec())
		fmt.Fprintf(out, "kept:     %d samples (%.3g%% of ticks)\n", r.kept, 100*float64(r.kept)/float64(r.ticks))
	}
	if line := latencyLine(r.lat, cfg.wireLabel()); line != "" {
		fmt.Fprintln(out, line)
	}
	if dr := r.drift; dr != nil {
		fmt.Fprintf(out, "hurst:    %s estimator, generated H %.2f\n", dr.method, cfg.hurst)
		if dr.inputN > 0 {
			fmt.Fprintf(out, "          input  H %.3f (%d/%d streams resolved)\n", dr.inputH, dr.inputN, cfg.streams)
		} else {
			fmt.Fprintf(out, "          input  H unresolved (stream too short to regress; raise -ticks)\n")
		}
		if dr.keptN > 0 {
			fmt.Fprintf(out, "          kept   H %.3f (%d/%d streams resolved)\n", dr.keptH, dr.keptN, cfg.streams)
			fmt.Fprintf(out, "          drift  %+.3f (post minus pre, %d streams)\n", dr.driftH, dr.driftN)
		} else {
			fmt.Fprintf(out, "          kept   H unresolved (too few kept samples; raise -ticks or the sampling rate)\n")
		}
	}
	if cfg.compare == "" {
		return
	}
	cell := func(m mean) string {
		if m.n == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.4f", m.value())
	}
	fmt.Fprintf(out, "\n%-36s %8s %11s %11s %9s\n", "technique", "kept%", "mean-bias", "var-bias", "h-drift")
	for i, spec := range r.specs {
		t := r.tallies[i]
		keptPct := math.NaN()
		if r.seen > 0 {
			keptPct = 100 * float64(t.kept) / float64(r.seen)
		}
		fmt.Fprintf(out, "%-36s %7.3f%% %11s %11s %9s\n",
			spec.String(), keptPct, cell(t.meanBias), cell(t.varBias), cell(t.drift))
	}
	if cfg.estimatorMethod() == "" {
		fmt.Fprintln(out, "(h-drift needs an estimator; it was disabled for this run)")
	}
}

// newDriver builds the run's target from the config — the in-process
// hub, or an HTTP client against a running daemon — bound to the
// stream namespace, or to the group namespace under -compare.
func newDriver(cfg loadConfig) (driver, string) {
	groups := cfg.compare != ""
	if cfg.direct {
		return directDriver{hub: hub.New(), groups: groups}, "direct"
	}
	addr := cfg.addr
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	d := &httpDriver{
		base:     addr,
		groups:   groups,
		client:   &http.Client{Timeout: 30 * time.Second},
		wire:     cfg.wireName(),
		sessions: map[string]*cluster.Session{},
		// Sessions outlive any per-request deadline by design: one
		// connection carries a whole run's frames.
		sessClient: &http.Client{},
	}
	d.bufs.New = func() any { return new([]byte) }
	return d, addr + " (" + d.wire + " wire)"
}

// hammer drives batches at the target from cfg.workers goroutines and
// returns the ingest totals. offer is the per-batch call — stream or
// group ingest. Each worker owns a disjoint set of ids (single writer
// per stream/group) and round-robins batches across them, phase-rotated
// so concurrent ids replay different parts of the base series at any
// instant.
func hammer(cfg loadConfig, ids []string, base []float64, offer func(id string, batch []float64) (int, error)) (ticks, kept int64, elapsed time.Duration, err error) {
	var totalKept, totalTicks atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			type cursor struct {
				id        string
				pos, left int
			}
			var mine []cursor
			for i := w; i < len(ids); i += cfg.workers {
				mine = append(mine, cursor{id: ids[i], pos: (i * 7919) % len(base), left: cfg.ticks})
			}
			for live := len(mine); live > 0; {
				live = 0
				for j := range mine {
					c := &mine[j]
					if c.left == 0 {
						continue
					}
					n := cfg.batch
					if n > c.left {
						n = c.left
					}
					if n > len(base)-c.pos {
						n = len(base) - c.pos
					}
					kept, err := offer(c.id, base[c.pos:c.pos+n])
					if err != nil {
						fail(err)
						return
					}
					totalKept.Add(int64(kept))
					totalTicks.Add(int64(n))
					c.left -= n
					c.pos = (c.pos + n) % len(base)
					if c.left > 0 {
						live++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed = time.Since(start)
	if firstErr != nil {
		return 0, 0, 0, firstErr
	}
	return totalTicks.Load(), totalKept.Load(), elapsed, nil
}
