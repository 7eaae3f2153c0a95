package sampling

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
)

// heavyTrace builds a deterministic heavy-tailed series, the workload
// class the paper studies.
func heavyTrace(n int) []float64 {
	rng := dist.NewRand(77)
	p := dist.Pareto{Alpha: 1.5, Xm: 1}
	f := make([]float64, n)
	for i := range f {
		f[i] = p.Sample(rng)
	}
	return f
}

var equalitySpecs = []string{
	"systematic:interval=16,offset=3",
	"stratified:interval=16,seed=21",
	"simple:rate=0.05,seed=22",
	"bernoulli:rate=0.05,seed=23",
	"bss:interval=16,L=4,eps=1.1",
}

// keptOf is the kept count of an OfferBatch on a live engine or group,
// which must succeed.
func keptOf(kept int, err error) int {
	if err != nil {
		panic(err)
	}
	return kept
}

// TestEngineMatchesCoreBatch: Engine.Sample must produce byte-identical
// output to core.Collect — the whole series as one kernel batch, the
// run the paper's figures use — for every technique, so the engine's
// budget, record and estimator layers add nothing to what the kernel
// keeps. (Each kernel is checked against the per-tick oracle in
// internal/core.)
func TestEngineMatchesCoreBatch(t *testing.T) {
	f := heavyTrace(1 << 13)
	for _, spec := range equalitySpecs {
		eng, err := New(MustParse(spec))
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		got, err := eng.Sample(f)
		if err != nil {
			t.Fatalf("Engine.Sample(%q): %v", spec, err)
		}
		kernel, err := core.Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Collect(kernel, f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: engine output differs from the batch path (%d vs %d samples)", spec, len(got), len(want))
		}
	}
}

// TestSnapshotDoesNotDisturbTheStream interleaves snapshots with
// batches and asserts the rest of the run is identical to an unobserved
// one — the non-destructive observation guarantee. Both engines take
// the first half in the same 37-tick batches; Sample over the second
// half returns every sample kept from then on, deferred picks included.
func TestSnapshotDoesNotDisturbTheStream(t *testing.T) {
	f := heavyTrace(1 << 12)
	half := len(f) / 2
	for _, spec := range equalitySpecs {
		run := func(observe bool) ([]Sample, Summary) {
			eng, err := New(MustParse(spec))
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < half; off += 37 {
				eng.OfferBatch(f[off:min(off+37, half)])
				if observe {
					eng.Snapshot()
				}
			}
			rest, err := eng.Sample(f[half:])
			if err != nil {
				t.Fatal(err)
			}
			return rest, eng.Snapshot()
		}
		want, wantSum := run(false)
		got, gotSum := run(true)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: snapshots disturbed the stream (%d vs %d samples)", spec, len(got), len(want))
		}
		if gotSum.Kept != wantSum.Kept || gotSum.Mean != wantSum.Mean || gotSum.Variance != wantSum.Variance {
			t.Errorf("%s: snapshots disturbed the summary:\n got %+v\nwant %+v", spec, gotSum, wantSum)
		}
	}
}

// TestSnapshotConcurrentWithTicks drives OfferBatch from one goroutine and
// Snapshot from another (run under -race), checking that successive
// snapshots are monotonically consistent.
func TestSnapshotConcurrentWithTicks(t *testing.T) {
	f := heavyTrace(1 << 15)
	eng, err := New(MustParse("bss:interval=16,L=4,eps=1.1"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for off := 0; off < len(f); off += 64 {
			eng.OfferBatch(f[off : off+64])
		}
	}()
	var prev Summary
	for {
		sum := eng.Snapshot()
		if sum.Seen < prev.Seen || sum.Kept < prev.Kept || sum.Qualified < prev.Qualified {
			t.Errorf("snapshot went backwards: %+v after %+v", sum, prev)
		}
		if sum.Kept > sum.Seen {
			t.Errorf("kept %d exceeds seen %d", sum.Kept, sum.Seen)
		}
		prev = sum
		select {
		case <-done:
			if _, err := eng.Finish(); err != nil {
				t.Fatal(err)
			}
			final := eng.Snapshot()
			if final.Seen != len(f) {
				t.Errorf("final seen %d, want %d", final.Seen, len(f))
			}
			if !final.Finished {
				t.Error("final snapshot not marked finished")
			}
			return
		default:
		}
	}
}

func TestFinishIdempotentAndOfferAfterFinish(t *testing.T) {
	f := heavyTrace(1 << 10)
	eng, err := New(MustParse("simple:n=20,seed=5"))
	if err != nil {
		t.Fatal(err)
	}
	eng.OfferBatch(f)
	tail, err := eng.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 20 {
		t.Fatalf("tail %d samples, want 20", len(tail))
	}
	again, err := eng.Finish()
	if err != nil || len(again) != 0 {
		t.Errorf("second Finish = (%d samples, %v), want (0, nil)", len(again), err)
	}
	if kept, err := eng.OfferBatch([]float64{1}); kept != 0 || !errors.Is(err, ErrFinished) {
		t.Errorf("OfferBatch after Finish = (%d, %v), want (0, ErrFinished)", kept, err)
	}
	sum := eng.Snapshot()
	if sum.Seen != len(f) || sum.Kept != 20 || !sum.Finished {
		t.Errorf("post-finish snapshot %+v inconsistent", sum)
	}
}

func TestBudgetCapsKeptSamples(t *testing.T) {
	f := heavyTrace(1 << 12)
	// Streaming technique: budget caps mid-stream emission.
	eng, err := New(MustParse("bernoulli:rate=0.5,seed=9"), WithBudget(10))
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for off := 0; off < len(f); off += 64 {
		kept += keptOf(eng.OfferBatch(f[off : off+64]))
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	sum := eng.Snapshot()
	if kept != 10 || sum.Kept != 10 {
		t.Errorf("kept %d (snapshot %d), want exactly the budget 10", kept, sum.Kept)
	}
	if sum.Budget != 10 {
		t.Errorf("summary budget %d, want 10", sum.Budget)
	}
	if sum.Seen != len(f) {
		t.Errorf("budget must not stop the engine from consuming: seen %d, want %d", sum.Seen, len(f))
	}

	// Offline technique: budget truncates the Finish tail.
	off, err := New(MustParse("simple:n=50,seed=5"), WithBudget(10))
	if err != nil {
		t.Fatal(err)
	}
	off.OfferBatch(f)
	tail, err := off.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 10 {
		t.Errorf("tail %d samples, want the budget 10", len(tail))
	}
}

func TestWithClockStampsSummaries(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	eng, err := New(MustParse("systematic:interval=4"), WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(5 * time.Second)
	sum := eng.Snapshot()
	if !sum.At.Equal(time.Unix(1005, 0)) {
		t.Errorf("Summary.At = %v, want the fake clock's time", sum.At)
	}
	if sum.Uptime != 5*time.Second {
		t.Errorf("Summary.Uptime = %v, want 5s", sum.Uptime)
	}
}

func TestSummaryStatistics(t *testing.T) {
	eng, err := New(MustParse("systematic:interval=1"))
	if err != nil {
		t.Fatal(err)
	}
	empty := eng.Snapshot()
	if !math.IsNaN(empty.Mean) || !math.IsNaN(empty.CILow) {
		t.Errorf("empty-engine summary should be NaN, got mean %g CI %g", empty.Mean, empty.CILow)
	}
	eng.OfferBatch([]float64{2, 4, 6, 8})
	sum := eng.Snapshot()
	if sum.Mean != 5 {
		t.Errorf("mean %g, want 5", sum.Mean)
	}
	if !(sum.CILow < 5 && 5 < sum.CIHigh) {
		t.Errorf("95%% CI [%g, %g] should bracket the mean", sum.CILow, sum.CIHigh)
	}
	if sum.Variance <= 0 {
		t.Errorf("variance %g, want positive", sum.Variance)
	}
}

func TestEngineSampleEmptySeries(t *testing.T) {
	eng, err := New(MustParse("systematic:interval=4"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sample(nil); err == nil {
		t.Error("expected error for empty series")
	}
}

// TestSampleAfterFinish: a finished engine refuses Sample with an
// error, as a finished group does, rather than reporting a run that kept
// nothing.
func TestSampleAfterFinish(t *testing.T) {
	eng, err := New(MustParse("systematic:interval=2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if out, err := eng.Sample([]float64{1, 2, 3, 4}); err == nil {
		t.Errorf("Sample after Finish = (%v, nil), want an error", out)
	}
	if sum := eng.Snapshot(); sum.Seen != 0 {
		t.Errorf("Sample after Finish advanced seen to %d", sum.Seen)
	}
}

// TestManyConcurrentObservers hammers Snapshot from several goroutines
// while ticks flow — the live-monitor pattern — and relies on -race for
// the safety half of the claim.
func TestManyConcurrentObservers(t *testing.T) {
	f := heavyTrace(1 << 14)
	eng, err := New(MustParse("stratified:interval=8,seed=3"))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					eng.Snapshot()
				}
			}
		}()
	}
	for off := 0; off < len(f); off += 64 {
		eng.OfferBatch(f[off : off+64])
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if got := eng.Snapshot().Seen; got != len(f) {
		t.Errorf("seen %d, want %d", got, len(f))
	}
}

// TestEngineFinished: the lifecycle state shows in Snapshot, and a
// batch offered after Finish fails with ErrFinished.
func TestEngineFinished(t *testing.T) {
	eng, err := New(MustParse("systematic:interval=2"))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Snapshot().Finished {
		t.Error("fresh engine reports finished")
	}
	if _, err := eng.OfferBatch([]float64{1}); err != nil {
		t.Errorf("live engine refused a batch: %v", err)
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if !eng.Snapshot().Finished {
		t.Error("finished engine reports live")
	}
	if _, err := eng.OfferBatch([]float64{2}); !errors.Is(err, ErrFinished) {
		t.Errorf("finished engine took a batch: %v, want ErrFinished", err)
	}
}

// TestOfferBatchMatchesOffer is the batch-ingest half of the
// equivalence story: for every technique, OfferBatch over ragged chunks
// must leave the engine in exactly the state one-tick batches do —
// same counters, same moments, same end-of-stream tail — and its kept
// counts must sum to the snapshot's. OfferBatch is what the hub, the
// daemon and the load generator drive, so this is the wire path's
// correctness anchor.
func TestOfferBatchMatchesOffer(t *testing.T) {
	f := heavyTrace(1 << 13)
	for _, spec := range equalitySpecs {
		batched, err := New(MustParse(spec))
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		ticked, err := New(MustParse(spec))
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for off := 0; off < len(f); off += 129 { // deliberately not a divisor of the length
			kept += keptOf(batched.OfferBatch(f[off:min(off+129, len(f))]))
		}
		tickKept := 0
		for i := range f {
			tickKept += keptOf(ticked.OfferBatch(f[i : i+1]))
		}
		if kept != tickKept {
			t.Errorf("%s: ragged batches kept %d, one-tick batches kept %d", spec, kept, tickKept)
		}
		batchTail, err := batched.Finish()
		if err != nil {
			t.Fatal(err)
		}
		tickTail, err := ticked.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batchTail, tickTail) {
			t.Errorf("%s: batch tail differs from tick tail (%d vs %d samples)", spec, len(batchTail), len(tickTail))
		}
		got, want := batched.Snapshot(), ticked.Snapshot()
		if got.Seen != want.Seen || got.Kept != want.Kept || got.Qualified != want.Qualified ||
			got.Mean != want.Mean || got.Variance != want.Variance {
			t.Errorf("%s: batch snapshot diverged:\n got %+v\nwant %+v", spec, got, want)
		}
		if got.Kept != kept+len(batchTail) {
			t.Errorf("%s: kept counts don't add up: snapshot %d, offers %d + tail %d",
				spec, got.Kept, kept, len(batchTail))
		}
	}
}

// TestOfferBatchAfterFinish: a finished engine refuses batches with
// ErrFinished, without advancing any counter.
func TestOfferBatchAfterFinish(t *testing.T) {
	eng, err := New(MustParse("systematic:interval=2"))
	if err != nil {
		t.Fatal(err)
	}
	if kept := keptOf(eng.OfferBatch([]float64{1, 2, 3, 4})); kept != 2 {
		t.Fatalf("kept %d of the warmup batch, want 2", kept)
	}
	if _, err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if kept, err := eng.OfferBatch([]float64{5, 6}); kept != 0 || !errors.Is(err, ErrFinished) {
		t.Errorf("post-finish OfferBatch = (%d, %v), want (0, ErrFinished)", kept, err)
	}
	if _, err := eng.Sample([]float64{7}); !errors.Is(err, ErrFinished) {
		t.Errorf("post-finish Sample: %v, want ErrFinished", err)
	}
	if sum := eng.Snapshot(); sum.Seen != 4 {
		t.Errorf("post-finish OfferBatch advanced seen to %d", sum.Seen)
	}
}

// TestOfferBatchDoesNotAllocate: a warm engine's batch path — estimator
// TickBatch, kernel and the pooled scratch — allocates nothing. Rate
// mode simple random is exempt: it buffers the stream by design.
func TestOfferBatchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	f := heavyTrace(1 << 16)
	for _, spec := range equalitySpecs {
		if spec == "simple:rate=0.05,seed=22" {
			spec = "simple:n=100,seed=22"
		}
		for _, opts := range [][]Option{nil, {WithEstimator("aggvar")}} {
			eng, err := New(MustParse(spec), opts...)
			if err != nil {
				t.Fatal(err)
			}
			off := 0
			batch := func() {
				if off+512 > len(f) {
					off = 0
				}
				eng.OfferBatch(f[off : off+512])
				off += 512
			}
			for i := 0; i < 64; i++ {
				batch()
			}
			if allocs := testing.AllocsPerRun(200, batch); allocs != 0 {
				t.Errorf("%s (%d options): %.2f allocs per OfferBatch, want 0", spec, len(opts), allocs)
			}
		}
	}
}
