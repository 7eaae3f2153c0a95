// Package obs is the serving path's observability layer: a stdlib-only
// metrics registry with a Prometheus text exposition, structured
// logging built on log/slog, an HTTP middleware that histograms every
// route, and a fixed-size flight recorder of recent request and error
// events for post-hoc forensics.
//
// The paper's argument is measurement under self-similar load, and the
// same discipline applies to the service that does the measuring: the
// hot-path instruments (Counter.Add, Gauge.Set, Histogram.Observe) are
// single atomic operations, zero allocations per call, cheap enough to
// sit on the ingest path at millions of ticks per second. Everything
// expensive — rendering, sorting, label joins — happens at scrape time
// in WriteText.
//
// Four pieces:
//
//   - Registry: pre-registered Counter/Gauge/Histogram families, with
//     labeled children minted once at startup (CounterVec.With and
//     friends) so the hot path holds a direct pointer and never
//     formats a label. Func-backed variants (NewGaugeFunc,
//     NewCounterFunc) mirror values owned elsewhere — the hub's shard
//     counters — and OnScrape hooks let one snapshot feed many series.
//   - Exposition: WriteText renders the Prometheus text format —
//     sorted families, HELP before TYPE before samples, escaped label
//     values, cumulative histogram buckets ending in le="+Inf".
//   - Recorder: a fixed-size, lock-cheap ring of recent Events
//     (requests served and error answers) in the style of
//     x/net/trace, served as JSON — the "what just happened" surface a
//     lifetime counter cannot provide.
//   - HTTPObserver: per-route duration/size histograms plus a
//     status-class counter, wired around each handler at mux
//     registration time, feeding the recorder and a request-scoped
//     slog line.
//
// The package takes its clock by injection (the default is the
// time.Now reference, never a buried call), so the samplelint
// detsource analyzer holds it to the same determinism discipline as
// the sampling core.
package obs
