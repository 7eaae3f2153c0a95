// Package repro is a from-scratch Go reproduction of "An In-Depth,
// Analytical Study of Sampling Techniques for Self-Similar Internet
// Traffic" (He & Hou, ICDCS 2005).
//
// The supported entry point is the public sampling package (repro/sampling):
// typed sampler specs (sampling.Parse, Spec.String round-trips), live
// streaming engines built with functional options
// (sampling.New(spec, sampling.WithBudget(n)), a randomized technique's
// seed a parameter of its spec),
// non-destructive mid-stream observation (Engine.Snapshot), typed errors
// (ErrUnknownTechnique, *ParamError), the paper's evaluation metrics, the
// BSS parameter design and the Theorem 1 Hurst-preservation checker.
//
// Above the single-engine API sits the serving layer: sampling/hub is a
// sharded, lock-striped hub multiplexing thousands of named streams
// (create, batched offer, non-destructive snapshot, finish, idle-TTL
// eviction, aggregate stats), cmd/sampled exposes it as an HTTP daemon
// (PUT/POST/GET/DELETE under /v1/streams plus Prometheus-style
// /metrics, with typed errors mapped to statuses and graceful
// shutdown), and cmd/sampleload is the matching load generator, driving
// N concurrent streams of fGn or ON/OFF traffic in-process (-direct) or
// over HTTP and reporting the achieved ticks/sec. Spec and Summary have
// JSON wire forms for exactly this use. For high-rate ingest,
// sampling/wire defines a length-prefixed, CRC-checked binary
// tick-batch framing (content type application/x-tickbatch) that the
// daemon decodes zero-copy through pooled buffers on the same /ticks
// endpoints, plus a persistent session mode (POST /v1/session) that
// streams many frames, routed by embedded stream id, over one
// connection; sampleload selects the encoding with -wire
// {json,text,binary,session}.
//
// Observability for that serving path lives in internal/obs: a
// stdlib-only metrics registry whose counters, gauges and histograms
// are single atomic operations (0 allocs/op) with a Prometheus
// text-exposition writer that renders all of /metrics — the hub's
// aggregate series, per-route request duration/size/status-class
// histograms, per-wire ingest decode histograms, build info and
// runtime health gauges; structured log/slog diagnostics behind
// -log-format/-log-level; a fixed-size flight-recorder ring of recent
// requests and errors on GET /debug/events; and opt-in pprof
// endpoints behind -pprof. sampleload reuses the histogram type for
// client-side per-request latency percentiles.
//
// Engines built with sampling.WithEstimator carry the online
// long-range-dependence subsystem (sampling/estimate): incremental
// Hurst estimators — streaming aggregated variance over a dyadic
// ladder, a pairwise-Haar Abry-Veitch cascade, a windowed R/S fallback
// — consuming ticks in O(log n) memory, allocating only when a stream
// first reaches a new power-of-two length, over both the input stream
// and the kept samples. Snapshot
// then reports a Summary.Hurst block (pre-sampling H, post-sampling H
// and their drift; undetermined values marshal as JSON null), the hub
// aggregates it across streams, and the daemon serves it per stream on
// GET /v1/streams/{id}/hurst.
//
// The implementation lives under internal/: the paper's contribution
// (the three classic sampling techniques, Biased Systematic Sampling,
// the SNC of Theorem 1, the average-variance theory of Theorem 2 and the
// full BSS parameter design) is in internal/core, where every technique
// is one Kernel — a state machine fed tick by tick or batch by batch,
// whose exact state can be saved and restored — built from a fixed
// spec-string technique table; the substrates it stands on — FFT/wavelets
// (internal/dsp), statistics (internal/stats), heavy-tailed
// distributions (internal/dist), long-range dependence and Hurst
// estimation (internal/lrd), traffic models and packet-trace synthesis
// (internal/traffic) and trace I/O (internal/trace) — are each their
// own package.
// internal/experiments reproduces every figure of the paper's
// evaluation; cmd/figures regenerates them and bench_test.go benchmarks
// each one.
//
// The invariants the hot path depends on but the compiler cannot see —
// batch-only ingest, no body slurping on the serving wire, seeded
// randomness and injected clocks in the sampling core and in
// internal/obs, zero-allocation //samplelint:hotpath functions,
// null-for-NaN JSON wire structs — are
// machine-enforced by the samplelint analyzer suite (internal/lint, run
// via `go run ./cmd/samplelint ./...`), a hard gate in the CI lint job.
//
// See README.md for a tour (including the skip-based batch kernels
// behind OfferBatch and their before/after numbers) and
// ARCHITECTURE.md for the map: paper concepts to packages, the layer
// diagram, and the life of one binary tick batch from sampleload
// through the daemon to a /v1/groups comparison snapshot.
package repro
