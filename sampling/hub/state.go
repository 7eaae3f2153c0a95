package hub

// Durable state: a hub can cut a whole-process checkpoint of every
// live stream and group (plus its cumulative counters) and later
// rebuild itself from one, and individual streams can be exported,
// imported and detached as opaque state blobs — the primitives under
// sampled's -checkpoint-dir lifecycle and the cluster router's
// stream handoff.

import (
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
	var err error
	if ck.Streams, err = h.streams.records(); err != nil {
		return nil, err
	}
	if ck.Groups, err = h.groups.records(); err != nil {
		return nil, err
	}
	// Counters are read after the tables: a stream created mid-cut may
	// be counted without appearing (harmless — Created is cumulative,
	// not a table length), but never the reverse.
	streams, groups := h.streams.totals(), h.groups.totals()
	ck.Totals = persist.Totals{
		Ticks:         streams.ticks,
		Kept:          streams.kept,
		GroupTicks:    groups.ticks,
		GroupKept:     groups.kept,
		Created:       streams.created,
		Evicted:       streams.evicted,
		GroupsCreated: groups.created,
		GroupsEvicted: groups.evicted,
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
// meant for an empty hub (boot); a colliding live id, or an id listed
// twice in one section, fails with ErrStreamExists after the decode
// pass, with nothing inserted.
func (h *Hub) Restore(ck *persist.Checkpoint) error {
	engines, err := h.streams.decode(ck.Streams)
	if err != nil {
		return err
	}
	grps, err := h.groups.decode(ck.Groups)
	if err != nil {
		return err
	}
	now := h.clock().UnixNano()
	t := ck.Totals
	if err := h.streams.restore(ck.Streams, engines, now,
		tally{created: t.Created, evicted: t.Evicted, ticks: t.Ticks, kept: t.Kept}); err != nil {
		return err
	}
	return h.groups.restore(ck.Groups, grps, now,
		tally{created: t.GroupsCreated, evicted: t.GroupsEvicted, ticks: t.GroupTicks, kept: t.GroupKept})
}

// StreamState exports one live stream's exact engine state as a
// framed blob (Engine.MarshalState) without disturbing it — one half
// of the cluster handoff protocol.
func (h *Hub) StreamState(id string) ([]byte, error) { return h.streams.state(id) }

// RestoreStream registers a new stream under id from an exported
// state blob — the other half of the handoff protocol. The id must
// not be live; the blob must be a valid engine state. A handed-off
// stream counts as created on this hub.
func (h *Hub) RestoreStream(id string, state []byte) error { return h.streams.install(id, state) }

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
	return h.streams.appendDetach(dst, id)
}

// GroupState exports one live comparison group's exact state
// (Group.MarshalState) without disturbing it.
func (h *Hub) GroupState(id string) ([]byte, error) { return h.groups.state(id) }

// RestoreGroupState registers a new comparison group under id from an
// exported state blob, mirroring RestoreStream.
func (h *Hub) RestoreGroupState(id string, state []byte) error { return h.groups.install(id, state) }

// AppendDetachGroup is AppendDetach for the group namespace
// (Group.AppendState).
func (h *Hub) AppendDetachGroup(dst []byte, id string) ([]byte, error) {
	return h.groups.appendDetach(dst, id)
}
