package hub

// Durable state: a hub can cut a whole-process checkpoint of every
// live stream and group (plus its cumulative counters) and later
// rebuild itself from one, and individual streams can be exported,
// imported and detached as opaque state blobs — the primitives under
// sampled's -checkpoint-dir lifecycle and the cluster router's
// stream handoff.

import (
	"fmt"
	"slices"
	"strings"

	"repro/sampling"
	"repro/sampling/persist"
)

// Eviction describes one stream or group Sweep is about to finalize,
// handed to the hub's evict hook before Finish runs. Exactly one of
// Engine and Group is non-nil. The hook runs outside all shard locks;
// the engine is still live, so MarshalState captures its final state.
type Eviction struct {
	ID     string
	Engine *sampling.Engine // the evicted stream's engine, nil for groups
	Group  *sampling.Group  // the evicted comparison group, nil for streams
}

// WithEvictHook installs a callback Sweep invokes for every stream
// and group it evicts, after removal from the tables but before the
// engine is finalized — the window where a checkpointing service can
// persist a final snapshot of an idle stream that will never tick
// again. The hook runs synchronously on the Sweep caller's goroutine,
// outside all shard locks; a slow hook slows Sweep, never ingest.
func WithEvictHook(fn func(Eviction)) Option {
	return func(h *Hub) { h.evictHook = fn }
}

// Checkpoint cuts a consistent-enough snapshot of the whole hub into
// a persist container: every live stream and group's exact engine
// state plus the cumulative counters. The shard locks are held only
// to copy out id/engine pairs; the engine marshaling — the O(state)
// part — runs outside them, taking each engine's own lock briefly, so
// ingest on other streams never stalls behind a checkpoint. Streams
// that tick while the checkpoint is being cut land in it at whatever
// tick boundary their marshal observed — each stream's blob is
// internally exact, which is the invariant restore needs.
//
// The caller's hub clock stamps TakenAt; records come out sorted by
// id (List order), so identical hub state yields identical bytes.
func (h *Hub) Checkpoint() (*persist.Checkpoint, error) {
	ck := &persist.Checkpoint{TakenAtUnixNano: h.clock().UnixNano()}

	type liveStream struct {
		id string
		st *stream
	}
	type liveGroup struct {
		id string
		gs *groupStream
	}
	var streams []liveStream
	var groups []liveGroup
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.RLock()
		for id, st := range sh.streams {
			streams = append(streams, liveStream{id, st})
		}
		for id, gs := range sh.groups {
			groups = append(groups, liveGroup{id, gs})
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(streams, func(a, b liveStream) int { return strings.Compare(a.id, b.id) })
	slices.SortFunc(groups, func(a, b liveGroup) int { return strings.Compare(a.id, b.id) })

	// Every blob is appended to one arena; ends[i] is where record i
	// stops. The records are sliced out only after the last append,
	// since a growing arena moves.
	var arena []byte
	ends := make([]int, 0, len(streams)+len(groups))
	var err error
	for _, ls := range streams {
		if arena, err = ls.st.engine.AppendState(arena); err != nil {
			return nil, fmt.Errorf("hub: checkpointing stream %q: %w", ls.id, err)
		}
		ends = append(ends, len(arena))
	}
	for _, lg := range groups {
		if arena, err = lg.gs.group.AppendState(arena); err != nil {
			return nil, fmt.Errorf("hub: checkpointing group %q: %w", lg.id, err)
		}
		ends = append(ends, len(arena))
	}
	record := func(i int) []byte {
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		return arena[start:ends[i]:ends[i]]
	}
	for i, ls := range streams {
		ck.Streams = append(ck.Streams, persist.StreamRecord{
			ID:                 ls.id,
			LastActiveUnixNano: ls.st.lastActive.Load(),
			State:              record(i),
		})
	}
	for i, lg := range groups {
		ck.Groups = append(ck.Groups, persist.GroupRecord{
			ID:                 lg.id,
			LastActiveUnixNano: lg.gs.lastActive.Load(),
			State:              record(len(streams) + i),
		})
	}

	// Counters are read after the tables: a stream created mid-cut may
	// be counted without appearing (harmless — Created is cumulative,
	// not a table length), but never the reverse.
	ck.Totals = persist.Totals{
		Created:       h.created.Load(),
		Evicted:       h.evicted.Load(),
		GroupsCreated: h.groupsCreated.Load(),
		GroupsEvicted: h.groupsEvicted.Load(),
	}
	for i := range h.shards {
		sh := &h.shards[i]
		ck.Totals.Ticks += sh.ticks.Load()
		ck.Totals.Kept += sh.kept.Load()
		ck.Totals.GroupTicks += sh.groupTicks.Load()
		ck.Totals.GroupKept += sh.groupKept.Load()
	}
	return ck, nil
}

// Restore rebuilds the hub's contents from a checkpoint: every record
// becomes a live engine with exactly the state it was checkpointed
// with, and the container's totals are folded into the hub's
// cumulative counters (so Stats spans the previous incarnation).
// Restore is all-or-nothing up front: every blob is decoded into an
// engine before any id is registered, so a corrupt record leaves the
// hub untouched. Restored streams are stamped active now, on the
// hub's clock — process downtime is not idleness, and a freshly
// restored hub must not mass-evict on its first Sweep. Restore is
// meant for an empty hub (boot); a colliding live id fails with
// ErrStreamExists after the decode pass, with nothing inserted.
func (h *Hub) Restore(ck *persist.Checkpoint) error {
	engines := make([]*sampling.Engine, len(ck.Streams))
	for i, rec := range ck.Streams {
		if rec.ID == "" {
			return fmt.Errorf("hub: checkpoint stream record %d: empty id: %w", i, ErrInvalidID)
		}
		eng, err := sampling.RestoreEngine(rec.State, sampling.WithClock(h.clock))
		if err != nil {
			return fmt.Errorf("hub: restoring stream %q: %w", rec.ID, err)
		}
		engines[i] = eng
	}
	grps := make([]*sampling.Group, len(ck.Groups))
	for i, rec := range ck.Groups {
		if rec.ID == "" {
			return fmt.Errorf("hub: checkpoint group record %d: empty id: %w", i, ErrInvalidID)
		}
		grp, err := sampling.RestoreGroup(rec.State, sampling.WithClock(h.clock))
		if err != nil {
			return fmt.Errorf("hub: restoring group %q: %w", rec.ID, err)
		}
		grps[i] = grp
	}
	// Collision check before insertion keeps the operation atomic with
	// a single writer (the boot path); concurrent creators racing a
	// Restore would still be caught by the per-shard dup check below.
	for _, rec := range ck.Streams {
		if _, st, _ := h.get(rec.ID); st != nil {
			return fmt.Errorf("hub: restoring stream %q: %w", rec.ID, ErrStreamExists)
		}
	}
	for _, rec := range ck.Groups {
		if _, gs, _ := h.getGroup(rec.ID); gs != nil {
			return fmt.Errorf("hub: restoring group %q: %w", rec.ID, ErrStreamExists)
		}
	}
	now := h.clock().UnixNano()
	for i, rec := range ck.Streams {
		st := &stream{engine: engines[i]}
		st.lastActive.Store(now)
		sh := h.shardOf(rec.ID)
		sh.mu.Lock()
		if _, dup := sh.streams[rec.ID]; dup {
			sh.mu.Unlock()
			return fmt.Errorf("hub: restoring stream %q: %w", rec.ID, ErrStreamExists)
		}
		sh.streams[rec.ID] = st
		sh.mu.Unlock()
	}
	for i, rec := range ck.Groups {
		gs := &groupStream{group: grps[i]}
		gs.lastActive.Store(now)
		sh := h.shardOf(rec.ID)
		sh.mu.Lock()
		if _, dup := sh.groups[rec.ID]; dup {
			sh.mu.Unlock()
			return fmt.Errorf("hub: restoring group %q: %w", rec.ID, ErrStreamExists)
		}
		sh.groups[rec.ID] = gs
		sh.mu.Unlock()
	}
	// The checkpoint's totals fold into this incarnation's counters.
	// Tick/kept counters are striped; shard 0 absorbs the carried
	// totals — Stats only ever sums them.
	h.created.Add(ck.Totals.Created)
	h.evicted.Add(ck.Totals.Evicted)
	h.groupsCreated.Add(ck.Totals.GroupsCreated)
	h.groupsEvicted.Add(ck.Totals.GroupsEvicted)
	h.shards[0].ticks.Add(ck.Totals.Ticks)
	h.shards[0].kept.Add(ck.Totals.Kept)
	h.shards[0].groupTicks.Add(ck.Totals.GroupTicks)
	h.shards[0].groupKept.Add(ck.Totals.GroupKept)
	return nil
}

// StreamState exports one live stream's exact engine state as a
// framed blob (Engine.MarshalState) without disturbing it — one half
// of the cluster handoff protocol.
func (h *Hub) StreamState(id string) ([]byte, error) {
	_, st, err := h.get(id)
	if err != nil {
		return nil, err
	}
	return st.engine.MarshalState()
}

// RestoreStream registers a new stream under id from an exported
// state blob — the other half of the handoff protocol. The id must
// not be live; the blob must be a valid engine state. A handed-off
// stream counts as created on this hub.
func (h *Hub) RestoreStream(id string, state []byte) error {
	if id == "" {
		return fmt.Errorf("hub: empty stream id: %w", ErrInvalidID)
	}
	eng, err := sampling.RestoreEngine(state, sampling.WithClock(h.clock))
	if err != nil {
		return err
	}
	st := &stream{engine: eng}
	st.lastActive.Store(h.clock().UnixNano())
	sh := h.shardOf(id)
	sh.mu.Lock()
	if _, dup := sh.streams[id]; dup {
		sh.mu.Unlock()
		return fmt.Errorf("hub: stream %q: %w", id, ErrStreamExists)
	}
	sh.streams[id] = st
	sh.mu.Unlock()
	h.created.Add(1)
	return nil
}

// GroupState exports one live comparison group's exact state
// (Group.MarshalState) without disturbing it.
func (h *Hub) GroupState(id string) ([]byte, error) {
	_, gs, err := h.getGroup(id)
	if err != nil {
		return nil, err
	}
	return gs.group.MarshalState()
}

// RestoreGroupState registers a new comparison group under id from an
// exported state blob, mirroring RestoreStream.
func (h *Hub) RestoreGroupState(id string, state []byte) error {
	if id == "" {
		return fmt.Errorf("hub: empty group id: %w", ErrInvalidID)
	}
	grp, err := sampling.RestoreGroup(state, sampling.WithClock(h.clock))
	if err != nil {
		return err
	}
	gs := &groupStream{group: grp}
	gs.lastActive.Store(h.clock().UnixNano())
	sh := h.shardOf(id)
	sh.mu.Lock()
	if _, dup := sh.groups[id]; dup {
		sh.mu.Unlock()
		return fmt.Errorf("hub: group %q: %w", id, ErrStreamExists)
	}
	sh.groups[id] = gs
	sh.mu.Unlock()
	h.groupsCreated.Add(1)
	return nil
}

// Detach exports a stream's state and removes it from the hub without
// finalizing the engine — the source side of a completed handoff: the
// stream lives on elsewhere, so running Finish here (draining the
// reservoir, closing the estimators) would be wrong. The state blob
// and the removal are atomic under the shard lock, so no tick can
// slip in between export and removal.
func (h *Hub) Detach(id string) ([]byte, error) { return h.AppendDetach(nil, id) }

// AppendDetach is Detach appending the state blob to dst
// (Engine.AppendState), so a caller that reuses one buffer detaches
// without allocating the blob. On error dst is returned as it was.
func (h *Hub) AppendDetach(dst []byte, id string) ([]byte, error) {
	sh := h.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.streams[id]
	if st == nil {
		return dst, fmt.Errorf("hub: stream %q: %w", id, ErrStreamNotFound)
	}
	b, err := st.engine.AppendState(dst)
	if err != nil {
		return dst, fmt.Errorf("hub: detaching stream %q: %w", id, err)
	}
	delete(sh.streams, id)
	return b, nil
}

// DetachGroup is Detach for the group namespace.
func (h *Hub) DetachGroup(id string) ([]byte, error) {
	sh := h.shardOf(id)
	sh.mu.Lock()
	gs := sh.groups[id]
	if gs == nil {
		sh.mu.Unlock()
		return nil, fmt.Errorf("hub: group %q: %w", id, ErrStreamNotFound)
	}
	blob, err := gs.group.MarshalState()
	if err != nil {
		sh.mu.Unlock()
		return nil, fmt.Errorf("hub: detaching group %q: %w", id, err)
	}
	delete(sh.groups, id)
	sh.mu.Unlock()
	return blob, nil
}
