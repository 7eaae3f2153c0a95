package sampling

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/sampling/estimate"
)

// stateTrace is a deterministic heavy-ish trace: seeded uniform noise
// with a slow burst modulation, long enough to exercise reservoir
// replacements, BSS triggers and several estimator ladder levels.
func stateTrace(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	f := make([]float64, n)
	for i := range f {
		burst := 1 + 3*math.Pow(math.Sin(float64(i)/500), 2)
		f[i] = rng.Float64() * burst
	}
	return f
}

// restoreSpecs covers all five techniques, both simple-random regimes
// and a budgeted variant — the matrix the restore-determinism
// acceptance criterion names.
var restoreSpecs = []struct {
	name   string
	spec   string
	budget int
}{
	{name: "systematic", spec: "systematic:interval=37,offset=5"},
	{name: "stratified", spec: "stratified:interval=41,seed=11"},
	{name: "simple-random-n", spec: "simple:n=64,seed=7"},
	{name: "simple-random-rate", spec: "simple:rate=0.02,seed=9"},
	{name: "bernoulli", spec: "bernoulli:rate=0.03,seed=13"},
	{name: "bss", spec: "bss:interval=50,L=4,eps=1.0"},
	{name: "bernoulli-budgeted", spec: "bernoulli:rate=0.05,seed=3", budget: 40},
}

// offerChunks drives values through OfferBatch in deliberately awkward
// chunk sizes (1, 7, 64, 395, ...) and returns total kept.
func offerChunks(e *Engine, values []float64) int {
	sizes := []int{1, 7, 64, 395, 13, 256}
	kept, i, s := 0, 0, 0
	for i < len(values) {
		n := sizes[s%len(sizes)]
		s++
		if i+n > len(values) {
			n = len(values) - i
		}
		kept += keptOf(e.OfferBatch(values[i : i+n]))
		i += n
	}
	return kept
}

// TestRestoreDeterminism is the subsystem's core invariant: an engine
// checkpointed mid-stream and restored must emit the byte-identical
// kept-sample sequence — and Hurst points — of one that never stopped,
// for every technique. The uninterrupted engine and the restored one
// consume the identical suffix; equality is asserted sample by sample
// on what Sample returns for it (Finish tail included), on snapshots,
// and finally on the complete marshaled end states.
func TestRestoreDeterminism(t *testing.T) {
	trace := stateTrace(20000, 42)
	cut := 11213 // off any stratum/interval boundary
	clock := func() time.Time { return time.Unix(1700000000, 0) }

	for _, tc := range restoreSpecs {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithEstimator("aggvar"), WithClock(clock)}
			if tc.budget > 0 {
				opts = append(opts, WithBudget(tc.budget))
			}
			live, err := New(MustParse(tc.spec), opts...)
			if err != nil {
				t.Fatal(err)
			}
			offerChunks(live, trace[:cut])

			blob, err := live.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreEngine(blob, WithClock(clock))
			if err != nil {
				t.Fatal(err)
			}

			// Sample over the suffix returns every sample each engine
			// keeps from the cut on, its Finish tail included, so the two
			// runs compare sample by sample.
			outA, errA := live.Sample(trace[cut:])
			outB, errB := restored.Sample(trace[cut:])
			if (errA == nil) != (errB == nil) {
				t.Fatalf("sample errors diverge: %v vs %v", errA, errB)
			}
			if len(outA) != len(outB) {
				t.Fatalf("kept suffixes diverge: %d vs %d samples", len(outA), len(outB))
			}
			for i := range outA {
				if outA[i] != outB[i] {
					t.Fatalf("kept sample %d diverges: live %+v, restored %+v", i, outA[i], outB[i])
				}
			}

			la, lb := live.Snapshot(), restored.Snapshot()
			// NaN-tolerant comparison: identical structs format identically,
			// including NaN fields, where == would report NaN != NaN.
			flatA, flatB := la, lb
			flatA.Hurst, flatB.Hurst = nil, nil
			if got, want := fmt.Sprintf("%+v", flatA), fmt.Sprintf("%+v", flatB); got != want {
				t.Fatalf("snapshots diverge:\nlive     %s\nrestored %s", want, got)
			}
			if (la.Hurst == nil) != (lb.Hurst == nil) {
				t.Fatalf("hurst presence diverges")
			}
			if la.Hurst != nil {
				if got, want := fmt.Sprintf("%+v", *lb.Hurst), fmt.Sprintf("%+v", *la.Hurst); got != want {
					t.Fatalf("hurst points diverge:\nlive     %s\nrestored %s", want, got)
				}
			}

			// Strongest form: the complete end states serialize to the same
			// bytes, so every internal field (RNG position included) matches.
			endA, err := live.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			endB, err := restored.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(endA, endB) {
				t.Fatalf("end states diverge (%d vs %d bytes)", len(endA), len(endB))
			}
		})
	}
}

// TestRestoreDeterminismAcrossBatchShapes: the restored engine may see
// the suffix in completely different batch shapes and still match —
// state capture happens on batch boundaries, and batch shape is
// invisible to the kernels.
func TestRestoreDeterminismAcrossBatchShapes(t *testing.T) {
	trace := stateTrace(12000, 7)
	cut := 7321
	for _, spec := range []string{"stratified:interval=29,seed=5", "bernoulli:rate=0.04,seed=8"} {
		live, err := New(MustParse(spec))
		if err != nil {
			t.Fatal(err)
		}
		offerChunks(live, trace[:cut])
		blob, err := live.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreEngine(blob)
		if err != nil {
			t.Fatal(err)
		}
		keptLive := keptOf(live.OfferBatch(trace[cut:])) // one giant batch
		keptRestored := 0
		for i := cut; i < len(trace); i++ { // vs. one-tick batches
			keptRestored += keptOf(restored.OfferBatch(trace[i : i+1]))
		}
		if keptLive != keptRestored {
			t.Fatalf("%s: kept %d via one batch, %d restored tick-by-tick", spec, keptLive, keptRestored)
		}
		endA, _ := live.MarshalState()
		endB, _ := restored.MarshalState()
		if !bytes.Equal(endA, endB) {
			t.Fatalf("%s: end states diverge", spec)
		}
	}
}

// TestRestoreEngineRejectsCorruption: the typed failure modes of the
// framing — truncation, bad magic, alien version, checksum damage.
func TestRestoreEngineRejectsCorruption(t *testing.T) {
	eng, err := New(MustParse("bernoulli:rate=0.1,seed=2"))
	if err != nil {
		t.Fatal(err)
	}
	eng.OfferBatch(stateTrace(500, 1))
	blob, err := eng.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := RestoreEngine(blob[:4]); !errors.Is(err, ErrBadState) {
		t.Errorf("truncated blob: %v, want ErrBadState", err)
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := RestoreEngine(bad); !errors.Is(err, ErrBadState) {
		t.Errorf("bad magic: %v, want ErrBadState", err)
	}
	bad = append([]byte(nil), blob...)
	bad[4] = 99
	if _, err := RestoreEngine(bad); !errors.Is(err, ErrStateVersion) {
		t.Errorf("alien version: %v, want ErrStateVersion", err)
	}
	bad = append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0x01
	if _, err := RestoreEngine(bad); !errors.Is(err, ErrStateChecksum) {
		t.Errorf("flipped payload bit: %v, want ErrStateChecksum", err)
	}
	// A group blob must not restore as an engine.
	g, err := NewGroup([]Spec{MustParse("systematic:interval=10")})
	if err != nil {
		t.Fatal(err)
	}
	gblob, err := g.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreEngine(gblob); !errors.Is(err, ErrBadState) {
		t.Errorf("group blob as engine: %v, want ErrBadState", err)
	}
}

// TestRestoreRejectsStateOptions: budget and estimator belong to
// the blob; only the clock is injectable at restore time.
func TestRestoreRejectsStateOptions(t *testing.T) {
	eng, err := New(MustParse("systematic:interval=5"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := eng.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreEngine(blob, WithBudget(10)); err == nil {
		t.Error("WithBudget accepted on restore")
	}
	if _, err := RestoreEngine(blob, WithEstimator("aggvar")); err == nil {
		t.Error("WithEstimator accepted on restore")
	}
	if _, err := RestoreEngine(blob, WithClock(func() time.Time { return time.Unix(0, 0) })); err != nil {
		t.Errorf("WithClock rejected on restore: %v", err)
	}
}

// TestGroupRestoreDeterminism: a group checkpointed mid-stream restores
// with its shared input reference and every member's state intact, and
// continues identically.
func TestGroupRestoreDeterminism(t *testing.T) {
	trace := stateTrace(15000, 21)
	cut := 9973
	specs := []Spec{
		MustParse("systematic:interval=40"),
		MustParse("stratified:interval=40,seed=4"),
		MustParse("bernoulli:rate=0.025,seed=6"),
		MustParse("bss:interval=40,L=3,eps=1.2"),
	}
	clock := func() time.Time { return time.Unix(1700000000, 0) }
	live, err := NewGroup(specs, WithEstimator("wavelet"), WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	live.OfferBatch(trace[:cut])

	blob, err := live.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreGroup(blob, WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.members) != len(live.members) {
		t.Fatalf("restored %d members, want %d", len(restored.members), len(live.members))
	}

	ka := keptOf(live.OfferBatch(trace[cut:]))
	kb := keptOf(restored.OfferBatch(trace[cut:]))
	if ka != kb {
		t.Fatalf("suffix kept %d live, %d restored", ka, kb)
	}
	ca, cb := live.Snapshot(), restored.Snapshot()
	if ca.Seen != cb.Seen || fmt.Sprintf("%v/%v", ca.Mean, ca.Variance) != fmt.Sprintf("%v/%v", cb.Mean, cb.Variance) {
		t.Fatalf("group references diverge:\nlive     %+v\nrestored %+v", ca, cb)
	}
	if (ca.Hurst == nil) != (cb.Hurst == nil) ||
		(ca.Hurst != nil && fmt.Sprintf("%+v", *ca.Hurst) != fmt.Sprintf("%+v", *cb.Hurst)) {
		t.Fatalf("group hurst diverges")
	}
	for i := range ca.Members {
		sa, sb := ca.Members[i].Summary, cb.Members[i].Summary
		if sa.Seen != sb.Seen || sa.Kept != sb.Kept || fmt.Sprintf("%v", sa.Mean) != fmt.Sprintf("%v", sb.Mean) {
			t.Fatalf("member %d diverges:\nlive     %+v\nrestored %+v", i, sa, sb)
		}
	}
	endA, err := live.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	endB, err := restored.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(endA, endB) {
		t.Fatalf("group end states diverge (%d vs %d bytes)", len(endA), len(endB))
	}
}

// TestRestoreFinishedEngine: a finished engine round-trips with its
// lifecycle state and error message intact.
func TestRestoreFinishedEngine(t *testing.T) {
	eng, err := New(MustParse("simple:n=10,seed=5"))
	if err != nil {
		t.Fatal(err)
	}
	// Finish with fewer ticks than n so Finish returns a typed error.
	eng.OfferBatch(stateTrace(5, 3))
	if _, err := eng.Finish(); err == nil {
		t.Fatal("expected a finish error (n > population)")
	}
	blob, err := eng.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Snapshot().Finished {
		t.Error("restored engine lost its finished state")
	}
	snap := restored.Snapshot()
	if snap.Err == nil || snap.Err.Error() != eng.Snapshot().Err.Error() {
		t.Errorf("finish error message lost: %v", snap.Err)
	}
	if kept, err := restored.OfferBatch([]float64{1, 2, 3}); kept != 0 || !errors.Is(err, ErrFinished) {
		t.Errorf("finished restored engine took a batch: (%d, %v), want (0, ErrFinished)", kept, err)
	}
}

// TestGroupInputMomentsMatchPerTick pins the group's input reference to
// the per-tick arithmetic for every estimator choice. Batches fold
// their moments — into aggvar's ladder level 0, or into the group's own
// accumulator — so they must agree with one stats.Accumulator.Add per
// tick within the fold tolerance (stats.CompareFolded), live, across
// batch shapes, and after a restore. A restore moves nothing: a group
// restored mid-stream and one that never stopped, fed the same batches,
// hold the same accumulator bytes.
func TestGroupInputMomentsMatchPerTick(t *testing.T) {
	trace := stateTrace(20000, 33)
	var want stats.Accumulator
	for _, v := range trace {
		want.Add(v)
	}
	specs := []Spec{MustParse("systematic:interval=40"), MustParse("bss:interval=40,L=3,eps=1.2")}
	for _, method := range []estimate.Method{"", estimate.AggVar, estimate.Wavelet, estimate.RS} {
		var opts []Option
		if method != "" {
			opts = append(opts, WithEstimator(method))
		}
		g, err := NewGroup(specs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		cut := 9973
		for off := 0; off < cut; off += 37 {
			g.OfferBatch(trace[off:min(off+37, cut)])
		}
		blob, err := g.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreGroup(blob)
		if err != nil {
			t.Fatal(err)
		}
		for off := cut; off < len(trace); off += 8192 {
			batch := trace[off:min(off+8192, len(trace))]
			g.OfferBatch(batch)
			restored.OfferBatch(batch)
		}
		got := restored.inputAcc.State()
		if err := stats.CompareFolded(want.State(), got); err != nil {
			t.Errorf("estimator %q: input moments: %v", method, err)
		}
		if live, back := g.inputAcc.AppendState(nil), restored.inputAcc.AppendState(nil); !bytes.Equal(live, back) {
			t.Errorf("estimator %q: restored input moments %+v, never-stopped %+v", method, got, g.inputAcc.State())
		}
	}
}

// appendStateEstimators is every estimator an engine may carry, none
// included.
var appendStateEstimators = []estimate.Method{"", estimate.AggVar, estimate.Wavelet, estimate.RS}

// stateEngine builds one restoreSpecs engine with the given estimator
// ("" for none) on a fixed clock.
func stateEngine(t testing.TB, spec string, budget int, method estimate.Method) *Engine {
	t.Helper()
	opts := []Option{WithClock(func() time.Time { return time.Unix(1700000000, 0) })}
	if budget > 0 {
		opts = append(opts, WithBudget(budget))
	}
	if method != "" {
		opts = append(opts, WithEstimator(method))
	}
	eng, err := New(MustParse(spec), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// fiveMemberGroup is a comparison group over all five techniques with
// an aggvar estimator, fed n ticks.
func fiveMemberGroup(t *testing.T, n int) *Group {
	t.Helper()
	g, err := NewGroup([]Spec{
		MustParse("systematic:interval=40"),
		MustParse("stratified:interval=40,seed=4"),
		MustParse("simple:n=64,seed=5"),
		MustParse("bernoulli:rate=0.025,seed=6"),
		MustParse("bss:interval=40,L=3,eps=1.2"),
	}, WithEstimator(estimate.AggVar))
	if err != nil {
		t.Fatal(err)
	}
	g.OfferBatch(stateTrace(n, 17))
	return g
}

// checkAppendState pins AppendState against MarshalState: appended
// behind a non-empty prefix it must yield the prefix followed by
// exactly MarshalState's bytes (a CRC taken over the whole buffer, not
// just the blob, breaks this), and a warm append into a buffer with
// room must make no more than warmAppendAllocs allocations.
func checkAppendState(t *testing.T, marshal func() ([]byte, error), appendState func([]byte) ([]byte, error)) {
	t.Helper()
	want, err := marshal()
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix:")
	got, err := appendState(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendState(prefix) is not the %d-byte prefix followed by MarshalState's %d bytes", len(prefix), len(want))
	}
	buf := make([]byte, len(prefix), len(prefix)+len(want))
	if allocs := testing.AllocsPerRun(20, func() { buf, _ = appendState(buf[:len(prefix)]) }); allocs > warmAppendAllocs {
		t.Errorf("warm AppendState made %.1f allocations, want at most %d", allocs, warmAppendAllocs)
	}
}

// TestAppendStateMatchesMarshalState covers every technique regime
// under every estimator, and a five-member group.
func TestAppendStateMatchesMarshalState(t *testing.T) {
	trace := stateTrace(20000, 42)
	for _, tc := range restoreSpecs {
		for _, method := range appendStateEstimators {
			t.Run(fmt.Sprintf("%s/%s", tc.name, cmp.Or(string(method), "none")), func(t *testing.T) {
				eng := stateEngine(t, tc.spec, tc.budget, method)
				offerChunks(eng, trace)
				checkAppendState(t, eng.MarshalState, eng.AppendState)
			})
		}
	}
	t.Run("group", func(t *testing.T) {
		g := fiveMemberGroup(t, 20000)
		checkAppendState(t, g.MarshalState, g.AppendState)
	})
}

// TestRestoreDoesNotAliasBlob: a restored engine or group owns all of
// its state. Overwriting the blob after the restore must change
// nothing, which is what lets the daemon read state bodies into pooled
// buffers and reuse them once the restore returns.
func TestRestoreDoesNotAliasBlob(t *testing.T) {
	trace := stateTrace(30000, 5)
	cut := 20000
	clock := func() time.Time { return time.Unix(1700000000, 0) }
	clobber := func(b []byte) {
		for i := range b {
			b[i] = 0xff
		}
	}
	asJSON := func(v any) string {
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	for _, tc := range restoreSpecs {
		for _, method := range appendStateEstimators {
			t.Run(fmt.Sprintf("%s/%s", tc.name, cmp.Or(string(method), "none")), func(t *testing.T) {
				live := stateEngine(t, tc.spec, tc.budget, method)
				offerChunks(live, trace[:cut])
				blob, err := live.MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				twin, err := RestoreEngine(bytes.Clone(blob), WithClock(clock))
				if err != nil {
					t.Fatal(err)
				}
				moved, err := RestoreEngine(blob, WithClock(clock))
				if err != nil {
					t.Fatal(err)
				}
				clobber(blob)

				var keptMoved, keptTwin []Sample
				for from := cut; from < len(trace); from += 512 {
					batch := trace[from:min(from+512, len(trace))]
					keptMoved = moved.offerBatch(batch, keptMoved)
					keptTwin = twin.offerBatch(batch, keptTwin)
				}
				if got, want := asJSON(moved.Snapshot()), asJSON(twin.Snapshot()); got != want {
					t.Fatalf("snapshots diverge after the blob was overwritten:\nmoved %s\ntwin  %s", got, want)
				}
				tailMoved, _ := moved.Finish()
				tailTwin, _ := twin.Finish()
				keptMoved, keptTwin = append(keptMoved, tailMoved...), append(keptTwin, tailTwin...)
				if got, want := fmt.Sprint(keptMoved), fmt.Sprint(keptTwin); got != want {
					t.Fatalf("kept samples diverge after the blob was overwritten (%d vs %d)", len(keptMoved), len(keptTwin))
				}
				if got, want := asJSON(moved.Snapshot()), asJSON(twin.Snapshot()); got != want {
					t.Fatalf("final snapshots diverge:\nmoved %s\ntwin  %s", got, want)
				}
			})
		}
	}
	t.Run("group", func(t *testing.T) {
		live := fiveMemberGroup(t, cut)
		blob, err := live.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		twin, err := RestoreGroup(bytes.Clone(blob), WithClock(clock))
		if err != nil {
			t.Fatal(err)
		}
		moved, err := RestoreGroup(blob, WithClock(clock))
		if err != nil {
			t.Fatal(err)
		}
		clobber(blob)
		for from := cut; from < len(trace); from += 512 {
			batch := trace[from:min(from+512, len(trace))]
			if a, b := keptOf(moved.OfferBatch(batch)), keptOf(twin.OfferBatch(batch)); a != b {
				t.Fatalf("batch at %d: moved group kept %d, twin %d", from, a, b)
			}
		}
		if got, want := asJSON(moved.Snapshot()), asJSON(twin.Snapshot()); got != want {
			t.Fatalf("group snapshots diverge:\nmoved %s\ntwin  %s", got, want)
		}
		tailMoved, _ := moved.Finish()
		tailTwin, _ := twin.Finish()
		if got, want := fmt.Sprint(tailMoved), fmt.Sprint(tailTwin); got != want {
			t.Fatal("group finish tails diverge after the blob was overwritten")
		}
		if got, want := asJSON(moved.Snapshot()), asJSON(twin.Snapshot()); got != want {
			t.Fatalf("final group snapshots diverge:\nmoved %s\ntwin  %s", got, want)
		}
	})
}

// TestRestoreRefusesInconsistentEstimators: restore refuses, with
// ErrBadState, estimator sections no engine or group writes — the
// cross-field rules the batch merge of the aggvar ladder relies on.
// Each case tampers with a live engine or group and re-marshals it, so
// the blob is well framed and freshly sealed. The first case is the
// engine whose kept-side section reads "absent": accepted, it panicked
// Snapshot.
func TestRestoreRefusesInconsistentEstimators(t *testing.T) {
	trace := stateTrace(300, 5)
	engineCases := map[string]func(e *Engine){
		"kept estimator absent":  func(e *Engine) { e.estKept = nil },
		"input estimator absent": func(e *Engine) { e.estIn = nil },
		"kept method differs":    func(e *Engine) { e.estKept, _ = estimate.New(estimate.Wavelet) },
		"input ladder past seen": func(e *Engine) { e.estIn.Tick(1) },
		"kept ladder short of kept": func(e *Engine) {
			e.estKept, _ = estimate.New(estimate.AggVar)
		},
	}
	for name, tamper := range engineCases {
		eng := stateEngine(t, "systematic:interval=7", 0, estimate.AggVar)
		eng.OfferBatch(trace)
		tamper(eng)
		blob, err := eng.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreEngine(blob); !errors.Is(err, ErrBadState) {
			t.Errorf("engine, %s: restore returned %v, want ErrBadState", name, err)
		}
	}

	groupCases := map[string]func(g *Group){
		"member with an input estimator": func(g *Group) { g.members[0].estIn, _ = estimate.New(estimate.AggVar) },
		"member kept method differs":     func(g *Group) { g.members[1].estKept, _ = estimate.New(estimate.RS) },
		"member kept estimator absent":   func(g *Group) { g.members[0].estKept = nil },
		"input ladder past seen":         func(g *Group) { g.estIn.Tick(1) },
	}
	for name, tamper := range groupCases {
		g, err := NewGroup([]Spec{MustParse("systematic:interval=7"), MustParse("bernoulli:rate=0.1,seed=4")},
			WithEstimator(estimate.AggVar))
		if err != nil {
			t.Fatal(err)
		}
		g.OfferBatch(trace)
		tamper(g)
		blob, err := g.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreGroup(blob); !errors.Is(err, ErrBadState) {
			t.Errorf("group, %s: restore returned %v, want ErrBadState", name, err)
		}
	}
}

// TestRestoreRefusesNonCanonicalSpec: AppendState writes a spec string
// in its canonical form (Spec.String), so a blob whose spec string
// parses to a spec that prints differently could never be written, and
// it would not re-marshal to its own bytes. Restore refuses it, in an
// engine and in a group member, with ErrBadState.
func TestRestoreRefusesNonCanonicalSpec(t *testing.T) {
	for _, spec := range []string{"systematic: interval=16", "systematic:offset=0,interval=16"} {
		if _, err := Parse(spec); err != nil {
			t.Fatalf("%q must parse, or restore refuses it for another reason: %v", spec, err)
		}
		eng := stateEngine(t, "systematic:interval=16,offset=0", 0, "")
		eng.OfferBatch(stateTrace(100, 3))
		eng.specString = spec
		blob, err := eng.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreEngine(blob); !errors.Is(err, ErrBadState) {
			t.Errorf("engine spec %q: restore returned %v, want ErrBadState", spec, err)
		}
		g, err := NewGroup([]Spec{MustParse("systematic:interval=16,offset=0")})
		if err != nil {
			t.Fatal(err)
		}
		g.OfferBatch(stateTrace(100, 3))
		g.members[0].specString = spec
		if blob, err = g.MarshalState(); err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreGroup(blob); !errors.Is(err, ErrBadState) {
			t.Errorf("group member spec %q: restore returned %v, want ErrBadState", spec, err)
		}
	}
}

// TestRestoreRefusesTrailingBytes: an engine or group blob with bytes
// after its last field, resealed so the CRC holds, is refused with
// ErrBadState: accepted, it would re-marshal to a shorter blob.
func TestRestoreRefusesTrailingBytes(t *testing.T) {
	eng := stateEngine(t, "bernoulli:rate=0.1,seed=2", 0, estimate.Wavelet)
	eng.OfferBatch(stateTrace(300, 3))
	blob, err := eng.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreEngine(resealEngine(append(blob[:len(blob)-4:len(blob)-4], 0))); !errors.Is(err, ErrBadState) {
		t.Errorf("engine: restore returned %v, want ErrBadState", err)
	}
	g := fiveMemberGroup(t, 300)
	if blob, err = g.MarshalState(); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreGroup(resealGroup(append(blob[:len(blob)-4:len(blob)-4], 0))); !errors.Is(err, ErrBadState) {
		t.Errorf("group: restore returned %v, want ErrBadState", err)
	}
}

// resealEngineCounters rewrites the kept and qualified counters of an
// engine blob in place and re-seals its CRC, so the blob is well
// framed and checksummed but carries counters its stream never
// produced.
func resealEngineCounters(t *testing.T, blob []byte, spec string, kept, qualified int64) []byte {
	t.Helper()
	// magic, version, spec string, budget, start, seen; then kept.
	at := 4 + 1 + 4 + len(spec) + 8 + 8 + 8
	out := bytes.Clone(blob)
	binary.LittleEndian.PutUint64(out[at:], uint64(kept))
	binary.LittleEndian.PutUint64(out[at+8:], uint64(qualified))
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// TestRestoreRefusesImpossibleCounters: a sealed blob whose counters
// no stream of ticks produces is refused with ErrBadState, not served.
// The first case is an edited blob that was accepted and then
// reported kept 1000 of seen 100 against a budget of 3; the rest break
// one rule each on a live engine before it is marshaled.
func TestRestoreRefusesImpossibleCounters(t *testing.T) {
	const spec = "systematic:interval=10"
	eng := stateEngine(t, spec, 3, "")
	eng.OfferBatch(stateTrace(100, 3))
	blob, err := eng.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreEngine(blob); err != nil {
		t.Fatalf("untouched blob: %v", err)
	}
	edited := resealEngineCounters(t, blob, eng.specString, 1000, 900)
	if e, err := RestoreEngine(edited); !errors.Is(err, ErrBadState) {
		t.Errorf("kept 1000 of seen 100 under budget 3: restore returned %v, want ErrBadState", err)
		if err == nil {
			t.Logf("snapshot served: %+v", e.Snapshot())
		}
	}

	cases := map[string]func(e *Engine){
		"kept past seen":             func(e *Engine) { e.kept, e.seen = 5, 4 },
		"qualified past kept":        func(e *Engine) { e.qualified = e.kept + 1 },
		"kept past budget":           func(e *Engine) { e.budget = e.kept - 1 },
		"accumulator short of kept":  func(e *Engine) { e.acc = stats.Accumulator{} },
		"accumulator past kept":      func(e *Engine) { e.acc.Add(1) },
		"negative qualified counter": func(e *Engine) { e.qualified = -1 },
		"finish error but no finish": func(e *Engine) { e.finishErr = errors.New("stale") },
	}
	for name, tamper := range cases {
		eng := stateEngine(t, "bss:interval=10,L=3,ath=1", 0, "")
		eng.OfferBatch(stateTrace(400, 3))
		tamper(eng)
		blob, err := eng.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreEngine(blob); !errors.Is(err, ErrBadState) {
			t.Errorf("%s: restore returned %v, want ErrBadState", name, err)
		}
	}
}

// TestRestoreGroupRefusesForeignMember: every member of a group has
// seen the group's ticks, and its fidelity is scored against them. A
// group blob carrying, as its second member, the state of a 5000-tick
// engine in a group that has seen 100 ticks was accepted; it is
// refused. So are a group whose input accumulator disagrees with its
// tick count, a finished member in a live group (it would ignore every
// later batch the group counts, so the group's next state would not
// restore) and a finish error on a group that is not finished.
func TestRestoreGroupRefusesForeignMember(t *testing.T) {
	specs := []Spec{MustParse("systematic:interval=10"), MustParse("bernoulli:rate=0.1,seed=4")}
	newGroup := func() *Group {
		g, err := NewGroup(specs)
		if err != nil {
			t.Fatal(err)
		}
		g.OfferBatch(stateTrace(100, 5))
		return g
	}

	foreign, err := New(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	foreign.OfferBatch(stateTrace(5000, 6))
	g := newGroup()
	g.members[1] = foreign
	blob, err := g.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreGroup(blob); !errors.Is(err, ErrBadState) {
		t.Errorf("5000-tick member in a 100-tick group: restore returned %v, want ErrBadState", err)
	}

	for name, tamper := range map[string]func(g *Group){
		"input accumulator past seen": func(g *Group) { g.inputAcc.Add(1) },
		"finished member, live group": func(g *Group) { g.members[0].finished = true },
		"finish error but no finish":  func(g *Group) { g.finishErr = errors.New("stale") },
	} {
		g := newGroup()
		tamper(g)
		if blob, err = g.MarshalState(); err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreGroup(blob); !errors.Is(err, ErrBadState) {
			t.Errorf("%s: restore returned %v, want ErrBadState", name, err)
		}
	}

	if blob, err = newGroup().MarshalState(); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreGroup(blob); err != nil {
		t.Errorf("untouched group blob: %v", err)
	}
}
