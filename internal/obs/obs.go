package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration is startup-time work (duplicate
// or malformed registrations panic — they are programmer errors, not
// runtime conditions); the metric handles it returns are safe for
// concurrent use on hot paths.
type Registry struct {
	mu       sync.Mutex // guards families and hooks
	families map[string]*family

	// hooks run at the top of every WriteText, serialized by scrapeMu:
	// the place to refresh func-backed metrics from one shared snapshot
	// instead of once per series.
	hooks    []func()
	scrapeMu sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// OnScrape registers f to run at the start of every WriteText, before
// any func-backed metric is read. Hooks run under the scrape lock, so
// values they write are safe to read from NewGaugeFunc/NewCounterFunc
// closures without further synchronization.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, f)
}

// family is one exposition block: HELP, TYPE, then every child's
// series lines.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge" or "histogram"
	labels []string
	bounds []float64 // histogram families only

	mu       sync.Mutex // guards children (With may race with a scrape)
	children []*child
	byKey    map[string]*child
}

// child is one series (or one histogram series set) of a family: a
// concrete metric plus the label values that address it.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	fn          func() float64 // func-backed counter/gauge
}

// register creates a family, panicking on duplicates and malformed
// names — registration is startup code, and a typo must not surface as
// a silently missing series.
func (r *Registry) register(name, help, typ string, labels []string, bounds []float64) *family {
	if name == "" || strings.ContainsAny(name, " \n\t{}\"") {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if l == "" || strings.ContainsAny(l, " \n\t{}\"=") {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %s bucket bounds not strictly increasing", name))
		}
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, bounds: bounds,
		byKey: make(map[string]*child)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %s registered twice", name))
	}
	r.families[name] = f
	return f
}

// addChild mints (or returns) the child addressed by values.
func (f *family) addChild(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.byKey[key]; ok {
		return c
	}
	c := &child{labelValues: append([]string(nil), values...)}
	switch f.typ {
	case "counter":
		c.counter = &Counter{}
	case "gauge":
		c.gauge = &Gauge{}
	case "histogram":
		c.hist = NewBareHistogram(f.bounds)
	}
	f.byKey[key] = c
	f.children = append(f.children, c)
	return c
}

// snapshotChildren copies the child list for rendering.
func (f *family) snapshotChildren() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*child(nil), f.children...)
}

// sortedFamilies returns the families in name order — the exposition
// is deterministic so scrape diffs are meaningful.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, help, "counter", nil, nil).addChild(nil).counter
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time — the mirror for a cumulative total owned elsewhere
// (e.g. the hub's shard counters). fn runs under the scrape lock.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", nil, nil).addChild(nil).fn = fn
}

// NewGauge registers an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", nil, nil).addChild(nil).gauge
}

// NewGaugeFunc registers a gauge read from fn at scrape time. fn runs
// under the scrape lock.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", nil, nil).addChild(nil).fn = fn
}

// CounterVec is a labeled counter family; mint children once at
// startup with With and hold the returned handles on the hot path.
type CounterVec struct{ fam *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, "counter", labels, nil)}
}

// With returns the child counter for the given label values, creating
// it on first use. Allocates; call at registration time, not per
// request.
func (v *CounterVec) With(values ...string) *Counter {
	return v.fam.addChild(values).counter
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ fam *family }

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, "gauge", labels, nil)}
}

// With returns the child gauge for the given label values, creating it
// on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.fam.addChild(values).gauge
}

// HistogramVec is a labeled histogram family; every child shares the
// family's bucket bounds.
type HistogramVec struct{ fam *family }

// NewHistogramVec registers a labeled histogram family over the given
// bucket upper bounds.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, "histogram", labels, buckets)}
}

// With returns the child histogram for the given label values,
// creating it on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.fam.addChild(values).hist
}

// Counter is a monotonically increasing count. The zero value is
// ready to use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
//
//samplelint:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
//
//samplelint:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
//
//samplelint:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets and tracks their
// sum. Observe is one atomic bucket increment plus a CAS float add —
// zero allocations — so it can sit on the per-request and per-frame
// serving paths.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; the last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-added
}

// NewBareHistogram builds an unregistered histogram over the given
// bucket upper bounds (ascending; +Inf is implicit) — the client-side
// form load generators use to track request latency without standing
// up a registry. The bounds slice is copied.
func NewBareHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic("obs: histogram bucket bounds not strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
//
//samplelint:hotpath
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket ladders are short (tens of bounds) and the
	// scan is branch-predictable; a binary search buys nothing here.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nb) {
			return
		}
	}
}

// snapshot returns cumulative per-bucket counts (ending with the +Inf
// bucket), the total observation count and the value sum. Reads race
// benignly with concurrent Observes — a scrape sees some consistent
// recent past, which is all a monitoring surface needs.
func (h *Histogram) snapshot() (cum []uint64, total uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	for i := range h.counts {
		total += h.counts[i].Load()
		cum[i] = total
	}
	return cum, total, math.Float64frombits(h.sum.Load())
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation inside the target bucket — the same
// estimate Prometheus's histogram_quantile computes. Observations in
// the +Inf bucket clamp to the highest finite bound. Returns NaN on an
// empty histogram or q outside [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	cum, total, _ := h.snapshot()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	i := 0
	for i < len(cum)-1 && float64(cum[i]) < rank {
		i++
	}
	if i >= len(h.bounds) {
		// The +Inf bucket has no upper edge to interpolate toward.
		if len(h.bounds) == 0 {
			return math.NaN()
		}
		return h.bounds[len(h.bounds)-1]
	}
	hi := h.bounds[i]
	lo := 0.0
	prev := uint64(0)
	if i > 0 {
		lo = h.bounds[i-1]
		prev = cum[i-1]
	} else if hi <= 0 {
		lo = hi
	}
	n := cum[i] - prev
	if n == 0 {
		return hi
	}
	return lo + (hi-lo)*(rank-float64(prev))/float64(n)
}

// ExpBuckets returns n exponentially spaced bucket upper bounds
// starting at start and growing by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets returns the default request-latency ladder: 500µs to
// 10s, the range a loopback microservice and a loaded WAN hop both
// land in.
func DurationBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}
