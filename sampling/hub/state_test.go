package hub_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/sampling"
	"repro/sampling/hub"
	"repro/sampling/persist"
)

// handoffTrace is a deterministic series for the state tests, distinct
// from the hammer helpers so failures here never depend on them.
func handoffTrace(n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = 1 + math.Sin(float64(i)/5)*math.Cos(float64(i)/89) + float64(i%11)/11
	}
	return f
}

// TestEvictHook: Sweep hands every evicted stream and group to the
// hook before finalizing, with the engine still live enough to
// checkpoint.
func TestEvictHook(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	var evicted []hub.Eviction
	var blobs int
	h := hub.New(
		hub.WithClock(clk.Now),
		hub.WithIdleTTL(time.Minute),
		hub.WithEvictHook(func(ev hub.Eviction) {
			evicted = append(evicted, ev)
			switch {
			case ev.Engine != nil:
				if blob, err := ev.Engine.MarshalState(); err != nil || len(blob) == 0 {
					t.Errorf("evicted engine %s would not checkpoint: %v", ev.ID, err)
				} else {
					blobs++
				}
			case ev.Group != nil:
				if blob, err := ev.Group.MarshalState(); err != nil || len(blob) == 0 {
					t.Errorf("evicted group %s would not checkpoint: %v", ev.ID, err)
				} else {
					blobs++
				}
			default:
				t.Errorf("eviction %s carries neither engine nor group", ev.ID)
			}
		}),
	)
	if err := h.Create("idle", sampling.MustParse("systematic:interval=4")); err != nil {
		t.Fatal(err)
	}
	if err := h.CreateGroup("idle-g", []sampling.Spec{sampling.MustParse("systematic:interval=4")}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.OfferBatch("idle", handoffTrace(64)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	if err := h.Create("fresh", sampling.MustParse("systematic:interval=4")); err != nil {
		t.Fatal(err)
	}
	if n := h.Sweep(); n != 2 {
		t.Fatalf("Sweep evicted %d, want 2", n)
	}
	if len(evicted) != 2 || blobs != 2 {
		t.Fatalf("hook saw %d evictions (%d checkpointable), want 2", len(evicted), blobs)
	}
	for _, ev := range evicted {
		if ev.ID != "idle" && ev.ID != "idle-g" {
			t.Fatalf("hook saw eviction of %q — that stream was active", ev.ID)
		}
	}
}

// TestDetachRestoreHandoff moves a stream between hubs mid-flight and
// holds it against a never-moved control: same kept counts, same
// summary, tick for tick — the invariant the cluster router's
// checkpoint-transfer handoff depends on.
func TestDetachRestoreHandoff(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	src := hub.New(hub.WithClock(clk.Now))
	dst := hub.New(hub.WithClock(clk.Now))
	control := hub.New(hub.WithClock(clk.Now))

	const spec = "bernoulli:rate=0.1,seed=42"
	for _, h := range []*hub.Hub{src, control} {
		if err := h.Create("flow", sampling.MustParse(spec), sampling.WithEstimator("aggvar")); err != nil {
			t.Fatal(err)
		}
	}
	f := handoffTrace(6000)
	cut := 2500
	if _, err := src.OfferBatch("flow", f[:cut]); err != nil {
		t.Fatal(err)
	}
	if _, err := control.OfferBatch("flow", f[:cut]); err != nil {
		t.Fatal(err)
	}

	blob, err := src.Detach("flow")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Snapshot("flow"); !errors.Is(err, hub.ErrStreamNotFound) {
		t.Fatalf("detached stream still resolves on the source: %v", err)
	}
	if err := dst.RestoreStream("flow", blob); err != nil {
		t.Fatal(err)
	}

	ka, err := dst.OfferBatch("flow", f[cut:])
	if err != nil {
		t.Fatal(err)
	}
	kb, err := control.OfferBatch("flow", f[cut:])
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("handed-off stream kept %d over the suffix, control kept %d", ka, kb)
	}
	sa, _ := dst.Snapshot("flow")
	sb, _ := control.Snapshot("flow")
	if sa.Seen != sb.Seen || sa.Kept != sb.Kept || sa.Qualified != sb.Qualified {
		t.Fatalf("handed-off summary %+v diverges from control %+v", sa, sb)
	}

	// The group namespace has the same protocol.
	specs := []sampling.Spec{sampling.MustParse("systematic:interval=8"), sampling.MustParse(spec)}
	if err := src.CreateGroup("gflow", specs); err != nil {
		t.Fatal(err)
	}
	if _, err := src.OfferGroupBatch("gflow", f[:cut]); err != nil {
		t.Fatal(err)
	}
	gblob, err := src.AppendDetachGroup(nil, "gflow")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreGroupState("gflow", gblob); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.OfferGroupBatch("gflow", f[cut:]); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsCollisionsAtomically: restoring a checkpoint into
// a hub that already serves one of its ids must fail without
// inserting any of the checkpoint's other streams.
func TestRestoreRejectsCollisionsAtomically(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	src := hub.New(hub.WithClock(clk.Now))
	for _, id := range []string{"a", "b", "c"} {
		if err := src.Create(id, sampling.MustParse("systematic:interval=4")); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	dst := hub.New(hub.WithClock(clk.Now))
	if err := dst.Create("b", sampling.MustParse("systematic:interval=4")); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(ck); !errors.Is(err, hub.ErrStreamExists) {
		t.Fatalf("Restore over a live id: %v, want ErrStreamExists", err)
	}
	if got := dst.List(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("failed Restore left streams behind: %v", got)
	}

	// A corrupt record must also leave the hub untouched.
	ck.Streams[1].State[len(ck.Streams[1].State)/2] ^= 0x40
	fresh := hub.New(hub.WithClock(clk.Now))
	if err := fresh.Restore(ck); err == nil {
		t.Fatal("Restore accepted a corrupt engine blob")
	}
	if got := fresh.List(); len(got) != 0 {
		t.Fatalf("failed Restore left streams behind: %v", got)
	}
}

// TestRestoreRejectsRepeatedIDs: a CRC-valid checkpoint that lists one
// id twice in a section must fail as a whole, in either section, with
// nothing from that checkpoint left live.
func TestRestoreRejectsRepeatedIDs(t *testing.T) {
	src := hub.New()
	if err := src.Create("a", sampling.MustParse("systematic:interval=4")); err != nil {
		t.Fatal(err)
	}
	if err := src.CreateGroup("g", []sampling.Spec{sampling.MustParse("systematic:interval=4")}); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"streams", "groups"} {
		ck, err := src.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if section == "streams" {
			ck.Streams = append(ck.Streams, ck.Streams[0])
		} else {
			ck.Groups = append(ck.Groups, ck.Groups[0])
		}
		// The repeat survives the container codec: persist.Decode checks
		// framing and CRC, not id uniqueness.
		ck, err = persist.Decode(ck.Encode())
		if err != nil {
			t.Fatal(err)
		}
		dst := hub.New()
		if err := dst.Restore(ck); !errors.Is(err, hub.ErrStreamExists) {
			t.Fatalf("%s: Restore of a repeated id = %v, want ErrStreamExists", section, err)
		}
		if st := dst.Stats(); st.Streams != 0 || st.Groups != 0 {
			t.Fatalf("%s: failed Restore left %d streams and %d groups behind", section, st.Streams, st.Groups)
		}
	}
}

// TestRestoredHubSurvivesFirstSweep: downtime is not idleness — a hub
// restored from an old checkpoint must not evict everything on its
// first Sweep, even when the checkpointed activity stamps are far
// past the TTL.
func TestRestoredHubSurvivesFirstSweep(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	src := hub.New(hub.WithClock(clk.Now))
	if err := src.Create("old", sampling.MustParse("systematic:interval=4")); err != nil {
		t.Fatal(err)
	}
	ck, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	clk.Advance(24 * time.Hour) // long outage
	dst := hub.New(hub.WithClock(clk.Now), hub.WithIdleTTL(time.Minute))
	if err := dst.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if n := dst.Sweep(); n != 0 {
		t.Fatalf("first Sweep after restore evicted %d streams", n)
	}
	if rec := ck.Streams[0]; rec.LastActiveUnixNano != time.Unix(1000, 0).UnixNano() {
		t.Fatalf("checkpoint lost the original activity stamp: %d", rec.LastActiveUnixNano)
	}
}

// TestCheckpointTotalsCarry: a restored hub's Stats include the
// previous incarnation's cumulative counters, and keep counting from
// there.
func TestCheckpointTotalsCarry(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	src := hub.New(hub.WithClock(clk.Now), hub.WithIdleTTL(time.Minute))
	if err := src.Create("gone", sampling.MustParse("systematic:interval=4")); err != nil {
		t.Fatal(err)
	}
	if _, err := src.OfferBatch("gone", handoffTrace(100)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	src.Sweep() // "gone" evicted: Created 1, Evicted 1, Ticks 100 survive only via totals
	if err := src.Create("live", sampling.MustParse("systematic:interval=4")); err != nil {
		t.Fatal(err)
	}
	if _, err := src.OfferBatch("live", handoffTrace(50)); err != nil {
		t.Fatal(err)
	}
	ck, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var rt persist.Totals
	rt = ck.Totals
	if rt.Created != 2 || rt.Evicted != 1 || rt.Ticks != 150 {
		t.Fatalf("checkpoint totals %+v, want Created 2, Evicted 1, Ticks 150", rt)
	}

	dst := hub.New(hub.WithClock(clk.Now))
	if err := dst.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.OfferBatch("live", handoffTrace(25)); err != nil {
		t.Fatal(err)
	}
	s := dst.Stats()
	if s.Created != 2 || s.Evicted != 1 || s.Ticks != 175 {
		t.Fatalf("restored stats %+v, want Created 2, Evicted 1, Ticks 175", s)
	}
	if s.Streams != 1 {
		t.Fatalf("restored hub serves %d streams, want 1", s.Streams)
	}
}

// TestAppendDetachAndCheckpointRecords: AppendDetach and
// AppendDetachGroup append exactly the blob StreamState or GroupState
// exported behind the caller's bytes (and leave them alone when the id
// is unknown), and every checkpoint record is
// its stream's or group's own blob, capped so that appending to one
// record cannot overwrite the next one in the shared arena.
func TestAppendDetachAndCheckpointRecords(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	h := hub.New(hub.WithClock(clk.Now))
	specs := []string{"systematic:interval=7", "stratified:interval=9,seed=2", "simple:n=50,seed=3"}
	for i, spec := range specs {
		id := string(rune('a' + i))
		if err := h.Create(id, sampling.MustParse(spec), sampling.WithEstimator("aggvar")); err != nil {
			t.Fatal(err)
		}
		if _, err := h.OfferBatch(id, handoffTrace(3000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.CreateGroup("g", []sampling.Spec{sampling.MustParse(specs[0]), sampling.MustParse(specs[2])}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.OfferGroupBatch("g", handoffTrace(2000)); err != nil {
		t.Fatal(err)
	}

	ck, err := h.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range ck.Streams {
		want, err := h.StreamState(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if string(rec.State) != string(want) || cap(rec.State) != len(rec.State) {
			t.Errorf("stream record %d (%s): %d bytes, cap %d; want its own %d-byte blob, capped",
				i, rec.ID, len(rec.State), cap(rec.State), len(want))
		}
	}
	want, err := h.GroupState("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Groups) != 1 || string(ck.Groups[0].State) != string(want) {
		t.Fatal("group record is not the group's blob")
	}

	want, err = h.StreamState("b")
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("head")
	if got, err := h.AppendDetach(prefix, "missing"); !errors.Is(err, hub.ErrStreamNotFound) || string(got) != "head" {
		t.Fatalf("AppendDetach of an unknown id = %q, %v", got, err)
	}
	got, err := h.AppendDetach(prefix, "b")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "head"+string(want) {
		t.Fatal("AppendDetach did not append exactly the exported blob after the prefix")
	}
	if _, err := h.StreamState("b"); !errors.Is(err, hub.ErrStreamNotFound) {
		t.Fatalf("detached stream still resolves: %v", err)
	}

	// The group namespace detaches through the same path.
	want, err = h.GroupState("g")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := h.AppendDetachGroup(prefix, "missing"); !errors.Is(err, hub.ErrStreamNotFound) || string(got) != "head" {
		t.Fatalf("AppendDetachGroup of an unknown id = %q, %v", got, err)
	}
	if got, err = h.AppendDetachGroup(prefix, "g"); err != nil {
		t.Fatal(err)
	}
	if string(got) != "head"+string(want) {
		t.Fatal("AppendDetachGroup did not append exactly the exported blob after the prefix")
	}
	if _, err := h.GroupState("g"); !errors.Is(err, hub.ErrStreamNotFound) {
		t.Fatalf("detached group still resolves: %v", err)
	}
}
