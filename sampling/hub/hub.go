// Package hub multiplexes many named sampling streams over live
// engines — the concurrency layer between the single-stream
// sampling.Engine and a measurement service watching thousands of
// traffic streams at once. Alongside plain streams it hosts comparison
// groups (sampling.Group): one input stream fanned out to several
// techniques, snapshot as a sampling.Comparison. Groups live in their
// own id namespace (CreateGroup/OfferGroupBatch/GroupSnapshot/
// FinishGroup) with the same lifecycle, eviction and typed errors as
// streams.
//
// Both namespaces are instances of one generic table (space), so the
// lifecycle is written once. Each is lock-striped: ids hash onto a
// fixed set of shards, each with its own mutex and id table, so
// operations on unrelated streams never contend on a shared lock. The
// engines themselves are concurrent-safe, which keeps the shard locks
// to map lookups only: the hot path (OfferBatch) holds a shard read
// lock just long enough to resolve the id.
//
// Ticks within one stream must arrive in order, so each stream should
// have a single writer, exactly as with a bare Engine; any number of
// goroutines may snapshot concurrently. Streams that stop receiving
// ticks are reaped by Sweep once they exceed the hub's idle TTL.
package hub

import (
	"errors"
	"math"
	"time"

	"repro/sampling"
)

// The typed failure modes of stream lookup and creation; branch with
// errors.Is. Engine construction failures keep their own types
// (sampling.ErrUnknownTechnique, *sampling.ParamError).
var (
	// ErrStreamExists is wrapped by Create when the id is already live.
	ErrStreamExists = errors.New("stream already exists")
	// ErrStreamNotFound is wrapped by operations on unknown (or already
	// finished, or evicted) stream ids.
	ErrStreamNotFound = errors.New("stream not found")
	// ErrInvalidID is wrapped by Create when the stream id is unusable
	// (empty) — a caller mistake, not a lookup miss.
	ErrInvalidID = errors.New("invalid stream id")
)

// Hub manages a set of named sampling streams and comparison groups,
// each namespace in its own lock-striped table. The zero value is not
// usable; build hubs with New.
type Hub struct {
	streams   space[*sampling.Engine]
	groups    space[*sampling.Group]
	clock     func() time.Time
	ttl       time.Duration
	evictHook func(Eviction)
	start     time.Time
}

// Option configures a Hub at construction; see New.
type Option func(*Hub)

// WithIdleTTL sets the idle threshold used by Sweep: streams that have
// not received ticks (or been created) for longer than ttl are evicted.
// Zero, the default, disables eviction. Snapshots do not count as
// activity — a stream kept alive only by its observers is dead.
func WithIdleTTL(ttl time.Duration) Option {
	return func(h *Hub) { h.ttl = ttl }
}

// WithClock substitutes the hub's time source (activity stamps, Stats
// uptime). The default is time.Now; tests inject fake clocks to drive
// eviction deterministically. Engines created by the hub share it.
func WithClock(now func() time.Time) Option {
	return func(h *Hub) { h.clock = now }
}

// New builds an empty hub.
func New(opts ...Option) *Hub {
	h := &Hub{clock: time.Now}
	for _, opt := range opts {
		opt(h)
	}
	h.streams.init("stream", h.clock, sampling.RestoreEngine)
	h.groups.init("group", h.clock, sampling.RestoreGroup)
	h.start = h.clock()
	return h
}

// withClock appends the hub's clock to the caller's engine options, so
// fake-clock tests see consistent time everywhere. It copies first: the
// caller's slice may have spare capacity that must not be written into.
func (h *Hub) withClock(opts []sampling.Option) []sampling.Option {
	all := make([]sampling.Option, 0, len(opts)+1)
	return append(append(all, opts...), sampling.WithClock(h.clock))
}

// Create builds a fresh engine from the spec (plus engine options, e.g.
// sampling.WithBudget or WithEstimator) and registers it under id. The id
// must be non-empty and not yet live; engine construction failures pass
// through with their types intact (sampling.ErrUnknownTechnique,
// *sampling.ParamError), so a service can map them to client errors.
func (h *Hub) Create(id string, spec sampling.Spec, opts ...sampling.Option) error {
	return h.streams.add(id, func() (*sampling.Engine, error) { return sampling.New(spec, h.withClock(opts)...) })
}

// OfferBatch feeds a batch of ticks to a stream in order and returns
// how many samples the batch finalized. It is the hot path: the shard
// lock covers only the id lookup, and the whole batch runs under one
// acquisition of the engine's lock (Engine.OfferBatch), never one per
// tick. Ticks within one stream must come from a single goroutine
// (batches from concurrent writers would interleave unpredictably);
// batches for different streams run fully in parallel. A Finish or
// Sweep racing the batch fails it with ErrStreamNotFound.
func (h *Hub) OfferBatch(id string, values []float64) (kept int, err error) {
	return h.streams.offer(id, values)
}

// Snapshot returns the stream's live summary without disturbing it.
func (h *Hub) Snapshot(id string) (sampling.Summary, error) {
	eng, err := h.streams.get(id)
	if err != nil {
		return sampling.Summary{}, err
	}
	return eng.Snapshot(), nil
}

// Finish ends a stream: the engine is finalized, the samples only
// decidable at end of stream (e.g. a simple random draw) are returned
// together with the final summary, and the id is released for reuse. A
// failed finalization (an engine deferred error) still removes the
// stream and reports the error in both the return and the summary.
func (h *Hub) Finish(id string) ([]sampling.Sample, sampling.Summary, error) {
	eng, st, err := h.streams.remove(id)
	if err != nil {
		return nil, sampling.Summary{}, err
	}
	tail, err := eng.Finish()
	st.kept.Add(int64(len(tail)))
	return tail, eng.Snapshot(), err
}

// List returns the ids of every live stream, sorted.
func (h *Hub) List() []string { return h.streams.ids() }

// CreateGroup builds a comparison group from the specs (one member
// engine per spec; options as in sampling.NewGroup, so WithEstimator
// attaches the shared input-side estimator) and registers it under id
// in the group namespace. Failure modes mirror Create: ErrInvalidID,
// ErrStreamExists for a live group id, and engine construction errors
// with their types intact.
func (h *Hub) CreateGroup(id string, specs []sampling.Spec, opts ...sampling.Option) error {
	return h.groups.add(id, func() (*sampling.Group, error) { return sampling.NewGroup(specs, h.withClock(opts)...) })
}

// OfferGroupBatch feeds a batch of ticks to every member of a group in
// order and returns how many samples the batch finalized across all
// members. The ingest contract matches OfferBatch: one writer per
// group, any number of concurrent observers, batches for different
// groups fully parallel. The group's tick counter counts input ticks,
// not input x members.
func (h *Hub) OfferGroupBatch(id string, values []float64) (kept int, err error) {
	return h.groups.offer(id, values)
}

// GroupSnapshot returns the group's live comparison without disturbing
// it.
func (h *Hub) GroupSnapshot(id string) (sampling.Comparison, error) {
	grp, err := h.groups.get(id)
	if err != nil {
		return sampling.Comparison{}, err
	}
	return grp.Snapshot(), nil
}

// FinishGroup ends a group: every member is finalized, the per-member
// end-of-stream tails are returned together with the final comparison,
// and the id is released for reuse. Member finalization errors do not
// block removal; they come back joined and stay visible in the member
// summaries.
func (h *Hub) FinishGroup(id string) ([][]sampling.Sample, sampling.Comparison, error) {
	grp, st, err := h.groups.remove(id)
	if err != nil {
		return nil, sampling.Comparison{}, err
	}
	tails, err := grp.Finish()
	var n int64
	for _, tail := range tails {
		n += int64(len(tail))
	}
	st.kept.Add(n)
	return tails, grp.Snapshot(), err
}

// ListGroups returns the ids of every live group, sorted.
func (h *Hub) ListGroups() []string { return h.groups.ids() }

// Sweep evicts every stream and group idle for longer than the hub's
// TTL and returns how many it removed. Evicted engines are finalized
// (their end-of-stream samples are dropped — nobody is listening). With
// no TTL configured Sweep is a no-op; a service calls it on a timer.
// The evict hook runs first, outside the shard locks — it is the last
// chance to capture the engine's state before Finish closes it.
func (h *Hub) Sweep() int {
	if h.ttl <= 0 {
		return 0
	}
	cutoff := h.clock().Add(-h.ttl).UnixNano()
	n := h.streams.sweep(cutoff, func(id string, eng *sampling.Engine) {
		if h.evictHook != nil {
			h.evictHook(Eviction{ID: id, Engine: eng})
		}
		eng.Finish()
	})
	return n + h.groups.sweep(cutoff, func(id string, grp *sampling.Group) {
		if h.evictHook != nil {
			h.evictHook(Eviction{ID: id, Group: grp})
		}
		grp.Finish()
	})
}

// Stats is the hub's aggregate state, shaped for metrics scraping:
// cumulative monotonic counters (Ticks, Kept, Created, Evicted) plus
// the current stream count and a lifetime average ingest rate.
type Stats struct {
	Streams     int           // live streams right now
	Created     int64         // streams ever created
	Evicted     int64         // streams removed by Sweep
	Ticks       int64         // ticks offered over the hub's lifetime
	Kept        int64         // samples kept over the hub's lifetime
	Uptime      time.Duration // since New
	TicksPerSec float64       // Ticks / Uptime — lifetime average

	// The comparison-group counterparts. GroupTicks counts input ticks
	// (each of which fans out to every member engine of its group);
	// GroupKept counts samples kept across all members.
	Groups        int   // live comparison groups right now
	GroupsCreated int64 // groups ever created
	GroupsEvicted int64 // groups removed by Sweep
	GroupTicks    int64 // ticks offered to groups over the hub's lifetime
	GroupKept     int64 // samples kept by group members over the hub's lifetime
}

// HurstStats aggregates the live long-range-dependence estimates over
// every stream built with sampling.WithEstimator: how many streams are
// estimating, how many have resolved on each side, and the mean input
// H, kept H and drift over the resolved streams. Means are NaN while
// their count is zero.
type HurstStats struct {
	Estimating int     // live streams carrying an estimator
	InputN     int     // streams whose input-side estimate has resolved
	KeptN      int     // streams whose kept-side estimate has resolved
	DriftN     int     // streams where both sides (hence drift) resolved
	MeanInputH float64 // mean pre-sampling H over InputN streams
	MeanKeptH  float64 // mean post-sampling H over KeptN streams
	MeanDrift  float64 // mean (kept - input) H over DriftN streams
}

// Hurst walks every live stream and folds its Hurst block into the
// aggregate. Cost is O(streams) — one engine snapshot each, taken
// outside the shard locks — so scrape it at dashboard frequency, not
// per request.
func (h *Hub) Hurst() HurstStats {
	st := HurstStats{MeanInputH: math.NaN(), MeanKeptH: math.NaN(), MeanDrift: math.NaN()}
	var sumIn, sumKept, sumDrift float64
	for _, n := range h.streams.sorted() {
		hs := n.e.m.Snapshot().Hurst
		if hs == nil {
			continue
		}
		st.Estimating++
		if hs.Input.OK {
			st.InputN++
			sumIn += hs.Input.H
		}
		if hs.Kept.OK {
			st.KeptN++
			sumKept += hs.Kept.H
		}
		if !math.IsNaN(hs.Drift) {
			st.DriftN++
			sumDrift += hs.Drift
		}
	}
	if st.InputN > 0 {
		st.MeanInputH = sumIn / float64(st.InputN)
	}
	if st.KeptN > 0 {
		st.MeanKeptH = sumKept / float64(st.KeptN)
	}
	if st.DriftN > 0 {
		st.MeanDrift = sumDrift / float64(st.DriftN)
	}
	return st
}

// Stats aggregates over the shards. Cost is O(shards), independent of
// the number of streams, so it is safe to scrape at high frequency.
func (h *Hub) Stats() Stats {
	streams, groups := h.streams.totals(), h.groups.totals()
	s := Stats{
		Streams:       streams.live,
		Created:       streams.created,
		Evicted:       streams.evicted,
		Ticks:         streams.ticks,
		Kept:          streams.kept,
		Uptime:        h.clock().Sub(h.start),
		Groups:        groups.live,
		GroupsCreated: groups.created,
		GroupsEvicted: groups.evicted,
		GroupTicks:    groups.ticks,
		GroupKept:     groups.kept,
	}
	if sec := s.Uptime.Seconds(); sec > 0 {
		s.TicksPerSec = float64(s.Ticks) / sec
	}
	return s
}
