package hub

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/sampling"
	"repro/sampling/persist"
)

// member is what a namespace table needs of the values it holds: batch
// ingest, which fails with sampling.ErrFinished once the member is
// finished, and the state codec. *sampling.Engine (streams) and
// *sampling.Group (comparison groups) both satisfy it.
type member interface {
	OfferBatch(values []float64) (int, error)
	AppendState(dst []byte) ([]byte, error)
}

// entry is one live member plus the bookkeeping the hub needs around
// it. lastActive is atomic so the ingest path can stamp it and Sweep can
// read it without taking any lock.
type entry[M member] struct {
	m          M
	lastActive atomic.Int64 // unix nanoseconds of the last create/offer
}

// stripe is one lock stripe of a namespace: a mutex-guarded id table
// plus cumulative tick/kept counters. The counters are atomics and
// survive removal, so aggregate Stats stays cheap and monotonic.
type stripe[M member] struct {
	mu    sync.RWMutex
	live  map[string]*entry[M]
	ticks atomic.Int64
	kept  atomic.Int64
}

// space is one id namespace: the lock-striped table and its whole
// lifecycle, written once. A Hub holds two, streams and groups, so a
// group and a stream may share an id, and each keeps its own counters:
// a group tick fans out to N engines, so folding the two together would
// make neither rate meaningful.
type space[M member] struct {
	kind    string // "stream" or "group", as error texts name it
	stripes [stripeCount]stripe[M]
	clock   func() time.Time
	rebuild func([]byte, ...sampling.Option) (M, error) // RestoreEngine or RestoreGroup
	created atomic.Int64
	evicted atomic.Int64
}

// named pairs a live entry with its id.
type named[M member] struct {
	id string
	e  *entry[M]
}

// tally is one namespace's aggregate counters.
type tally struct {
	live                          int
	created, evicted, ticks, kept int64
}

// stripeCount is the number of lock stripes per namespace, a power of
// two: enough that unrelated streams almost never share a lock at
// thousands of streams, and few enough that totals and Sweep, which
// visit every stripe, stay cheap.
const stripeCount = 64

// init makes the stripes' id tables.
func (s *space[M]) init(kind string, clock func() time.Time, rebuild func([]byte, ...sampling.Option) (M, error)) {
	s.kind, s.clock, s.rebuild = kind, clock, rebuild
	for i := range s.stripes {
		s.stripes[i].live = make(map[string]*entry[M])
	}
}

// stripeOf hashes an id onto its stripe (FNV-1a).
func (s *space[M]) stripeOf(id string) *stripe[M] {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hash := uint64(offset64)
	for i := 0; i < len(id); i++ {
		hash ^= uint64(id[i])
		hash *= prime64
	}
	return &s.stripes[hash&(stripeCount-1)]
}

func (s *space[M]) notFound(id string) error {
	return fmt.Errorf("hub: %s %q: %w", s.kind, id, ErrStreamNotFound)
}

// lookup resolves an id to its stripe (so hot paths hash the id exactly
// once) and its live entry, nil when the id is not live.
func (s *space[M]) lookup(id string) (*stripe[M], *entry[M]) {
	st := s.stripeOf(id)
	st.mu.RLock()
	e := st.live[id]
	st.mu.RUnlock()
	return st, e
}

// get resolves a live member or fails with ErrStreamNotFound.
func (s *space[M]) get(id string) (M, error) {
	if _, e := s.lookup(id); e != nil {
		return e.m, nil
	}
	var zero M
	return zero, s.notFound(id)
}

// add checks the id, builds the member, registers it and counts it as
// created. Build failures pass through with their types intact.
func (s *space[M]) add(id string, build func() (M, error)) error {
	if id == "" {
		return fmt.Errorf("hub: empty %s id: %w", s.kind, ErrInvalidID)
	}
	m, err := build()
	if err != nil {
		return err
	}
	if err := s.insert(id, m, s.clock().UnixNano()); err != nil {
		return err
	}
	s.created.Add(1)
	return nil
}

// install registers a new member under id, rebuilt from an exported
// state blob; it counts as created.
func (s *space[M]) install(id string, state []byte) error {
	return s.add(id, func() (M, error) { return s.rebuild(state, sampling.WithClock(s.clock)) })
}

// insert registers m under id, stamped active at now; a live id fails
// with ErrStreamExists.
func (s *space[M]) insert(id string, m M, now int64) error {
	e := &entry[M]{m: m}
	e.lastActive.Store(now)
	st := s.stripeOf(id)
	st.mu.Lock()
	if _, dup := st.live[id]; dup {
		st.mu.Unlock()
		return fmt.Errorf("hub: %s %q: %w", s.kind, id, ErrStreamExists)
	}
	st.live[id] = e
	st.mu.Unlock()
	return nil
}

// offer feeds a batch to a live member and returns how many samples it
// finalized. The stripe lock covers only the id lookup; the batch runs
// under one acquisition of the member's own lock.
//
//samplelint:hotpath
func (s *space[M]) offer(id string, values []float64) (kept int, err error) {
	st, e := s.lookup(id)
	if e == nil {
		return 0, s.notFound(id)
	}
	// A finish or Sweep eviction that took the member's lock first makes
	// OfferBatch refuse the batch: fail rather than count ticks nothing
	// saw. The batch is atomic under that lock, so no finish lands
	// mid-batch.
	if kept, err = e.m.OfferBatch(values); err != nil {
		return 0, fmt.Errorf("hub: %s %q: finished while offering: %w", s.kind, id, ErrStreamNotFound)
	}
	e.lastActive.Store(s.clock().UnixNano())
	st.ticks.Add(int64(len(values)))
	st.kept.Add(int64(kept))
	return kept, nil
}

// remove unregisters a live id and returns its member together with
// its stripe, whose kept counter absorbs the finalization tail.
func (s *space[M]) remove(id string) (M, *stripe[M], error) {
	st := s.stripeOf(id)
	st.mu.Lock()
	e := st.live[id]
	delete(st.live, id)
	st.mu.Unlock()
	if e == nil {
		var zero M
		return zero, nil, s.notFound(id)
	}
	return e.m, st, nil
}

// state exports a live member's exact state without disturbing it.
func (s *space[M]) state(id string) ([]byte, error) {
	m, err := s.get(id)
	if err != nil {
		return nil, err
	}
	return m.AppendState(nil)
}

// appendDetach appends a member's state to dst and removes it, both
// under the stripe lock, so no tick can slip in between export and
// removal. On error dst is returned as it was.
func (s *space[M]) appendDetach(dst []byte, id string) ([]byte, error) {
	st := s.stripeOf(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.live[id]
	if e == nil {
		return dst, s.notFound(id)
	}
	b, err := e.m.AppendState(dst)
	if err != nil {
		return dst, fmt.Errorf("hub: detaching %s %q: %w", s.kind, id, err)
	}
	delete(st.live, id)
	return b, nil
}

// sorted returns every live entry, sorted by id. The stripe locks are
// held only to copy out the pairs.
func (s *space[M]) sorted() []named[M] {
	var out []named[M]
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for id, e := range st.live {
			out = append(out, named[M]{id, e})
		}
		st.mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b named[M]) int { return strings.Compare(a.id, b.id) })
	return out
}

// ids returns every live id, sorted; nil when the namespace is empty.
func (s *space[M]) ids() []string {
	var out []string
	for _, n := range s.sorted() {
		out = append(out, n.id)
	}
	return out
}

// sweep removes every member idle since before cutoff (unix
// nanoseconds), hands each to evict outside the stripe locks — evict
// may do O(member) work and must not stall unrelated ids of the same
// stripe — and returns how many it removed.
func (s *space[M]) sweep(cutoff int64, evict func(id string, m M)) int {
	var dead []named[M]
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for id, e := range st.live {
			if e.lastActive.Load() < cutoff {
				delete(st.live, id)
				dead = append(dead, named[M]{id, e})
			}
		}
		st.mu.Unlock()
	}
	for _, d := range dead {
		evict(d.id, d.e.m)
	}
	s.evicted.Add(int64(len(dead)))
	return len(dead)
}

// totals sums the namespace's counters over its stripes. Cost is
// O(stripes), independent of the number of live ids.
func (s *space[M]) totals() tally {
	t := tally{created: s.created.Load(), evicted: s.evicted.Load()}
	for i := range s.stripes {
		st := &s.stripes[i]
		t.ticks += st.ticks.Load()
		t.kept += st.kept.Load()
		st.mu.RLock()
		t.live += len(st.live)
		st.mu.RUnlock()
	}
	return t
}

// records captures every live member's exact state as checkpoint
// records, sorted by id, marshaled outside the stripe locks. The blobs
// share one arena, sliced only after the last append (a growing arena
// moves); each record is capped so appending to it cannot overwrite the
// next.
func (s *space[M]) records() ([]persist.Record, error) {
	live := s.sorted()
	if len(live) == 0 {
		return nil, nil
	}
	var arena []byte
	ends := make([]int, len(live))
	var err error
	for i, n := range live {
		if arena, err = n.e.m.AppendState(arena); err != nil {
			return nil, fmt.Errorf("hub: checkpointing %s %q: %w", s.kind, n.id, err)
		}
		ends[i] = len(arena)
	}
	recs := make([]persist.Record, len(live))
	start := 0
	for i, n := range live {
		recs[i] = persist.Record{
			ID:                 n.id,
			LastActiveUnixNano: n.e.lastActive.Load(),
			State:              arena[start:ends[i]:ends[i]],
		}
		start = ends[i]
	}
	return recs, nil
}

// decode rebuilds one member per checkpoint record and checks that no
// record's id repeats or is already live, so a corrupt record or a
// collision fails before restore inserts anything.
func (s *space[M]) decode(recs []persist.Record) ([]M, error) {
	ms := make([]M, len(recs))
	for i, rec := range recs {
		if rec.ID == "" {
			return nil, fmt.Errorf("hub: checkpoint %s record %d: empty id: %w", s.kind, i, ErrInvalidID)
		}
		m, err := s.rebuild(rec.State, sampling.WithClock(s.clock))
		if err != nil {
			return nil, fmt.Errorf("hub: restoring %s %q: %w", s.kind, rec.ID, err)
		}
		ms[i] = m
	}
	seen := make(map[string]bool, len(recs))
	for _, rec := range recs {
		if seen[rec.ID] {
			return nil, fmt.Errorf("hub: checkpoint repeats %s %q: %w", s.kind, rec.ID, ErrStreamExists)
		}
		seen[rec.ID] = true
		if _, e := s.lookup(rec.ID); e != nil {
			return nil, fmt.Errorf("hub: restoring %s %q: %w", s.kind, rec.ID, ErrStreamExists)
		}
	}
	return ms, nil
}

// restore inserts decoded members under their record ids, stamped
// active at now, and folds a previous incarnation's counters into this
// one's. Tick/kept counters are striped; stripe 0 absorbs the carried
// totals, since only their sum is ever read.
func (s *space[M]) restore(recs []persist.Record, ms []M, now int64, carried tally) error {
	for i, rec := range recs {
		if err := s.insert(rec.ID, ms[i], now); err != nil {
			return err
		}
	}
	s.created.Add(carried.created)
	s.evicted.Add(carried.evicted)
	s.stripes[0].ticks.Add(carried.ticks)
	s.stripes[0].kept.Add(carried.kept)
	return nil
}
