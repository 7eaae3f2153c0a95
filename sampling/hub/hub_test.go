package hub_test

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/lrd"
	"repro/sampling"
	"repro/sampling/estimate"
	"repro/sampling/hub"
)

// testSpec returns the spec for the idx-th hammer stream, rotating over
// all five registered techniques with per-stream seeds where the
// technique is randomized.
func testSpec(idx int) sampling.Spec {
	switch idx % 5 {
	case 0:
		return sampling.MustParse("systematic:interval=7,offset=3")
	case 1:
		return sampling.MustParse(fmt.Sprintf("stratified:interval=5,seed=%d", 100+idx))
	case 2:
		return sampling.MustParse("simple:n=20")
	case 3:
		return sampling.MustParse(fmt.Sprintf("bernoulli:rate=0.2,seed=%d", 100+idx))
	default:
		return sampling.MustParse("bss:interval=10,L=3,eps=0.5")
	}
}

// testSeries returns the deterministic tick series of the idx-th hammer
// stream: heavy-ish exponential variates so BSS thresholds trigger.
func testSeries(idx, n int) []float64 {
	rng := dist.NewRand(uint64(1000 + idx))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.ExpFloat64()
	}
	return out
}

// sameFloat treats two NaNs as equal — a snapshot mean is legitimately
// NaN before the first kept sample (e.g. simple random pre-finish).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

// TestHubHammer drives one hub from 64 goroutines across 1000 streams
// and asserts every per-stream snapshot is identical to a
// single-threaded engine run with the same spec, seed and series —
// stream isolation under concurrency, the hub's core contract.
func TestHubHammer(t *testing.T) {
	const (
		nStreams = 1000
		nWorkers = 64
		nTicks   = 600
		batch    = 37 // deliberately not a divisor of nTicks
	)
	h := hub.New()
	for i := 0; i < nStreams; i++ {
		if err := h.Create(fmt.Sprintf("stream-%04d", i), testSpec(i)); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, nWorkers)
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each stream has exactly one writer (ticks must stay in
			// order), but a worker interleaves batches across all its
			// streams so shards see concurrent mixed traffic.
			var mine []int
			for i := w; i < nStreams; i += nWorkers {
				mine = append(mine, i)
			}
			series := make(map[int][]float64, len(mine))
			for _, i := range mine {
				series[i] = testSeries(i, nTicks)
			}
			for off := 0; off < nTicks; off += batch {
				for _, i := range mine {
					end := off + batch
					if end > nTicks {
						end = nTicks
					}
					if _, err := h.OfferBatch(fmt.Sprintf("stream-%04d", i), series[i][off:end]); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i := 0; i < nStreams; i++ {
		got, err := h.Snapshot(fmt.Sprintf("stream-%04d", i))
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		ref, err := sampling.New(testSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		ref.OfferBatch(testSeries(i, nTicks))
		want := ref.Snapshot()
		if got.Seen != want.Seen || got.Kept != want.Kept || got.Qualified != want.Qualified ||
			!sameFloat(got.Mean, want.Mean) || !sameFloat(got.Variance, want.Variance) {
			t.Errorf("stream %d (%s) diverged from single-threaded run:\n got seen=%d kept=%d qual=%d mean=%g var=%g\nwant seen=%d kept=%d qual=%d mean=%g var=%g",
				i, testSpec(i), got.Seen, got.Kept, got.Qualified, got.Mean, got.Variance,
				want.Seen, want.Kept, want.Qualified, want.Mean, want.Variance)
		}
	}

	st := h.Stats()
	if st.Streams != nStreams || st.Created != nStreams {
		t.Errorf("stats: %d live / %d created, want %d / %d", st.Streams, st.Created, nStreams, nStreams)
	}
	if want := int64(nStreams * nTicks); st.Ticks != want {
		t.Errorf("stats: %d ticks, want %d", st.Ticks, want)
	}
}

func TestHubCreateErrors(t *testing.T) {
	h := hub.New()
	spec := sampling.MustParse("systematic:interval=10")
	if err := h.Create("a", spec); err != nil {
		t.Fatal(err)
	}
	if err := h.Create("a", spec); !errors.Is(err, hub.ErrStreamExists) {
		t.Errorf("duplicate create: got %v, want ErrStreamExists", err)
	}
	if err := h.Create("", spec); !errors.Is(err, hub.ErrInvalidID) {
		t.Errorf("empty id: got %v, want ErrInvalidID", err)
	}
	if err := h.Create("b", sampling.MustParse("no-such-technique")); !errors.Is(err, sampling.ErrUnknownTechnique) {
		t.Errorf("unknown technique: got %v, want ErrUnknownTechnique", err)
	}
	var pe *sampling.ParamError
	if err := h.Create("c", sampling.MustParse("systematic:interval=10,bogus=1")); !errors.As(err, &pe) {
		t.Errorf("rejected param: got %v, want *ParamError", err)
	}
	if n := h.Stats().Streams; n != 1 {
		t.Errorf("failed creates leaked streams: %d live", n)
	}
}

func TestHubUnknownStream(t *testing.T) {
	h := hub.New()
	if _, err := h.OfferBatch("ghost", []float64{1}); !errors.Is(err, hub.ErrStreamNotFound) {
		t.Errorf("offer: got %v", err)
	}
	if _, err := h.Snapshot("ghost"); !errors.Is(err, hub.ErrStreamNotFound) {
		t.Errorf("snapshot: got %v", err)
	}
	if _, _, err := h.Finish("ghost"); !errors.Is(err, hub.ErrStreamNotFound) {
		t.Errorf("finish: got %v", err)
	}
}

// TestHubFinish checks that Finish returns the end-of-stream tail (the
// whole draw, for offline simple random sampling), reports it in the
// final summary, and releases the id for reuse.
func TestHubFinish(t *testing.T) {
	h := hub.New()
	if err := h.Create("s", sampling.MustParse("simple:n=5,seed=9")); err != nil {
		t.Fatal(err)
	}
	series := testSeries(0, 100)
	if _, err := h.OfferBatch("s", series); err != nil {
		t.Fatal(err)
	}
	tail, sum, err := h.Finish("s")
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 5 {
		t.Errorf("tail has %d samples, want 5", len(tail))
	}
	if !sum.Finished || sum.Kept != 5 || sum.Seen != 100 {
		t.Errorf("final summary: %+v", sum)
	}
	if _, _, err := h.Finish("s"); !errors.Is(err, hub.ErrStreamNotFound) {
		t.Errorf("second finish: got %v, want ErrStreamNotFound", err)
	}
	if err := h.Create("s", sampling.MustParse("systematic:interval=2")); err != nil {
		t.Errorf("id not released after finish: %v", err)
	}
	if st := h.Stats(); st.Kept != 5 {
		t.Errorf("finish tail not counted: %d kept", st.Kept)
	}
}

// TestHubOfferRacingFinish pits a finishing stream against its writer:
// once Finish wins, OfferBatch must fail with ErrStreamNotFound rather
// than report success for ticks no engine saw.
func TestHubOfferRacingFinish(t *testing.T) {
	h := hub.New()
	if err := h.Create("s", sampling.MustParse("systematic:interval=2")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		var last error
		for i := 0; i < 100000; i++ {
			if _, err := h.OfferBatch("s", []float64{1, 2, 3}); err != nil {
				last = err
				break
			}
		}
		done <- last
	}()
	if _, _, err := h.Finish("s"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil && !errors.Is(err, hub.ErrStreamNotFound) {
		t.Errorf("offer racing finish: got %v, want ErrStreamNotFound (or the writer finished first)", err)
	}
}

// fakeClock is a mutable time source shared by a hub and its test.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestHubSweep(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	h := hub.New(hub.WithIdleTTL(time.Minute), hub.WithClock(clk.Now))
	spec := sampling.MustParse("systematic:interval=2")
	for _, id := range []string{"idle", "busy"} {
		if err := h.Create(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(45 * time.Second)
	if _, err := h.OfferBatch("busy", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Snapshots are not activity: observing "idle" must not keep it alive.
	if _, err := h.Snapshot("idle"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Second)
	if n := h.Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d streams, want 1", n)
	}
	if _, err := h.Snapshot("idle"); !errors.Is(err, hub.ErrStreamNotFound) {
		t.Errorf("idle stream survived sweep: %v", err)
	}
	if _, err := h.Snapshot("busy"); err != nil {
		t.Errorf("busy stream evicted: %v", err)
	}
	if st := h.Stats(); st.Evicted != 1 || st.Streams != 1 {
		t.Errorf("stats after sweep: %+v", st)
	}
}

func TestHubSweepWithoutTTL(t *testing.T) {
	h := hub.New()
	if err := h.Create("s", sampling.MustParse("systematic:interval=2")); err != nil {
		t.Fatal(err)
	}
	if n := h.Sweep(); n != 0 {
		t.Errorf("TTL-less sweep evicted %d streams", n)
	}
}

func TestHubList(t *testing.T) {
	h := hub.New()
	ids := []string{"zeta", "alpha", "mid"}
	for _, id := range ids {
		if err := h.Create(id, sampling.MustParse("systematic:interval=2")); err != nil {
			t.Fatal(err)
		}
	}
	got := h.List()
	want := append([]string(nil), ids...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("List returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List returned %v, want %v", got, want)
		}
	}
}

func TestHubStatsRate(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	h := hub.New(hub.WithClock(clk.Now))
	if err := h.Create("s", sampling.MustParse("systematic:interval=2")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.OfferBatch("s", make([]float64, 500)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if st := h.Stats(); st.TicksPerSec != 250 {
		t.Errorf("TicksPerSec = %g, want 250", st.TicksPerSec)
	}
}

// BenchmarkHubOfferParallel measures aggregate ingest throughput with
// every worker driving its own stream — the hot path of a sharded
// multi-stream service. The custom ticks/s metric is the number the
// roadmap cares about.
func BenchmarkHubOfferParallel(b *testing.B) {
	const batch = 512
	h := hub.New()
	series := testSeries(0, batch)
	var nextID int64
	var mu sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		nextID++
		id := fmt.Sprintf("bench-%d", nextID)
		mu.Unlock()
		if err := h.Create(id, sampling.MustParse("systematic:interval=100")); err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if _, err := h.OfferBatch(id, series); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)*batch/sec, "ticks/s")
	}
}

// TestHubHurstAggregate: streams created with estimators roll up into
// Hub.Hurst, streams without estimators do not, and the means track the
// per-stream blocks.
func TestHubHurstAggregate(t *testing.T) {
	h := hub.New()
	gen, err := lrd.NewFGN(0.8, 1<<13, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	series := gen.Generate(dist.NewRand(42))
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("est-%d", i)
		if err := h.Create(id, sampling.MustParse("systematic:interval=8"),
			sampling.WithEstimator(estimate.AggVar)); err != nil {
			t.Fatal(err)
		}
		if _, err := h.OfferBatch(id, series); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Create("plain", sampling.MustParse("systematic:interval=8")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.OfferBatch("plain", series); err != nil {
		t.Fatal(err)
	}
	st := h.Hurst()
	if st.Estimating != 3 {
		t.Errorf("Estimating = %d, want 3 (plain stream must not count)", st.Estimating)
	}
	if st.InputN != 3 || st.KeptN != 3 || st.DriftN != 3 {
		t.Fatalf("resolved counts = (%d, %d, %d), want all 3", st.InputN, st.KeptN, st.DriftN)
	}
	// All three streams saw the same series, so the mean equals the
	// per-stream value.
	sum, err := h.Snapshot("est-0")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.MeanInputH-sum.Hurst.Input.H) > 1e-12 ||
		math.Abs(st.MeanKeptH-sum.Hurst.Kept.H) > 1e-12 ||
		math.Abs(st.MeanDrift-sum.Hurst.Drift) > 1e-12 {
		t.Errorf("aggregate %+v disagrees with per-stream block %+v", st, *sum.Hurst)
	}
	if math.Abs(st.MeanInputH-0.8) > 0.15 {
		t.Errorf("MeanInputH = %g, want ~0.8", st.MeanInputH)
	}
}

// TestHubHurstEmpty: with no estimating streams the counts are zero and
// the means are NaN, never a division artifact.
func TestHubHurstEmpty(t *testing.T) {
	h := hub.New()
	if err := h.Create("plain", sampling.MustParse("systematic:interval=8")); err != nil {
		t.Fatal(err)
	}
	st := h.Hurst()
	if st.Estimating != 0 || st.InputN != 0 || st.KeptN != 0 || st.DriftN != 0 {
		t.Errorf("zero-state counts wrong: %+v", st)
	}
	if !math.IsNaN(st.MeanInputH) || !math.IsNaN(st.MeanKeptH) || !math.IsNaN(st.MeanDrift) {
		t.Errorf("zero-state means should be NaN: %+v", st)
	}
}

// TestHubBatchVsTickEquivalence: the hub's batch ingest (one
// engine-lock acquisition per 97-tick batch) must leave a stream in
// exactly the state a standalone engine's Sample over the whole series
// reaches — identical kept counts, end-of-stream tail and snapshot
// counters/moments — for every technique.
func TestHubBatchVsTickEquivalence(t *testing.T) {
	const nTicks = 2000
	h := hub.New()
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("eq-%d", i)
		if err := h.Create(id, testSpec(i)); err != nil {
			t.Fatal(err)
		}
		series := testSeries(i, nTicks)
		var kept int
		for off := 0; off < nTicks; {
			end := off + 97 // deliberately not a divisor of nTicks
			if end > nTicks {
				end = nTicks
			}
			n, err := h.OfferBatch(id, series[off:end])
			if err != nil {
				t.Fatal(err)
			}
			kept += n
			off = end
		}
		ref, err := sampling.New(testSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		refAll, err := ref.Sample(series)
		if err != nil {
			t.Fatal(err)
		}
		tail, sum, err := h.Finish(id)
		if err != nil {
			t.Fatal(err)
		}
		// Sample returns the in-stream samples, then the Finish tail.
		if kept+len(tail) != len(refAll) {
			t.Fatalf("stream %d (%s): hub kept %d + tail %d, reference engine kept %d",
				i, testSpec(i), kept, len(tail), len(refAll))
		}
		for j := range tail {
			if tail[j] != refAll[kept+j] {
				t.Errorf("stream %d: tail sample %d = %+v, want %+v", i, j, tail[j], refAll[kept+j])
				break
			}
		}
		want := ref.Snapshot()
		if sum.Seen != want.Seen || sum.Kept != want.Kept || sum.Qualified != want.Qualified ||
			!sameFloat(sum.Mean, want.Mean) || !sameFloat(sum.Variance, want.Variance) {
			t.Errorf("stream %d (%s) diverged from the reference engine:\n got seen=%d kept=%d mean=%g var=%g\nwant seen=%d kept=%d mean=%g var=%g",
				i, testSpec(i), sum.Seen, sum.Kept, sum.Mean, sum.Variance,
				want.Seen, want.Kept, want.Mean, want.Variance)
		}
	}
}

// groupSpecs is the five-technique member list the group tests share.
func groupSpecs() []sampling.Spec {
	return []sampling.Spec{
		sampling.MustParse("systematic:interval=7,offset=3"),
		sampling.MustParse("stratified:interval=5,seed=101"),
		sampling.MustParse("simple:n=20,seed=4"),
		sampling.MustParse("bernoulli:rate=0.2,seed=102"),
		sampling.MustParse("bss:interval=10,L=3,eps=0.5"),
	}
}

// TestHubGroupLifecycle drives a comparison group through the hub:
// create, batch ingest, snapshot (members all observed at the group's
// tick count, each identical to a standalone engine), finish with
// tails, id release, and the group stat counters.
func TestHubGroupLifecycle(t *testing.T) {
	h := hub.New()
	specs := groupSpecs()
	if err := h.CreateGroup("g", specs); err != nil {
		t.Fatal(err)
	}
	if err := h.CreateGroup("g", specs); !errors.Is(err, hub.ErrStreamExists) {
		t.Errorf("duplicate group create: got %v, want ErrStreamExists", err)
	}
	if err := h.CreateGroup("", specs); !errors.Is(err, hub.ErrInvalidID) {
		t.Errorf("empty group id: got %v, want ErrInvalidID", err)
	}
	if err := h.CreateGroup("bad", []sampling.Spec{sampling.MustParse("warp-drive")}); !errors.Is(err, sampling.ErrUnknownTechnique) {
		t.Errorf("bad member: got %v, want ErrUnknownTechnique", err)
	}
	if err := h.CreateGroup("empty", nil); err == nil {
		t.Error("spec-less group created without error")
	}

	series := testSeries(0, 600)
	kept, err := h.OfferGroupBatch("g", series)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := h.GroupSnapshot("g")
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Seen != 600 || len(cmp.Members) != len(specs) {
		t.Fatalf("comparison: seen=%d members=%d", cmp.Seen, len(cmp.Members))
	}
	for i, m := range cmp.Members {
		if m.Summary.Seen != cmp.Seen {
			t.Errorf("member %d observed at %d ticks inside a %d-tick comparison", i, m.Summary.Seen, cmp.Seen)
		}
		ref, err := sampling.New(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		ref.OfferBatch(series)
		if want := ref.Snapshot(); m.Summary.Kept != want.Kept || !sameFloat(m.Summary.Mean, want.Mean) {
			t.Errorf("member %d (%s): kept=%d mean=%g, standalone kept=%d mean=%g",
				i, specs[i], m.Summary.Kept, m.Summary.Mean, want.Kept, want.Mean)
		}
	}

	tails, fin, err := h.FinishGroup("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(tails) != len(specs) || !fin.Finished {
		t.Fatalf("finish: %d tails, finished=%v", len(tails), fin.Finished)
	}
	if len(tails[2]) != 20 {
		t.Errorf("simple member tail has %d samples, want its full n=20 draw", len(tails[2]))
	}
	if _, _, err := h.FinishGroup("g"); !errors.Is(err, hub.ErrStreamNotFound) {
		t.Errorf("second group finish: got %v, want ErrStreamNotFound", err)
	}
	if err := h.CreateGroup("g", specs); err != nil {
		t.Errorf("group id not released after finish: %v", err)
	}

	st := h.Stats()
	if st.Groups != 1 || st.GroupsCreated != 2 {
		t.Errorf("group stats: %d live / %d created, want 1 / 2", st.Groups, st.GroupsCreated)
	}
	if st.GroupTicks != 600 {
		t.Errorf("group ticks = %d, want 600 (input ticks, not x members)", st.GroupTicks)
	}
	if want := int64(kept + len(tails[2])); st.GroupKept != want {
		t.Errorf("group kept = %d, want %d", st.GroupKept, want)
	}
	if st.Ticks != 0 || st.Streams != 0 {
		t.Errorf("group traffic leaked into stream counters: %+v", st)
	}
}

// TestHubGroupNamespace: groups and streams are separate id spaces —
// the same id can name one of each, and group ops never see streams.
func TestHubGroupNamespace(t *testing.T) {
	h := hub.New()
	if err := h.Create("x", sampling.MustParse("systematic:interval=2")); err != nil {
		t.Fatal(err)
	}
	if err := h.CreateGroup("x", groupSpecs()); err != nil {
		t.Errorf("group id colliding with stream id: %v", err)
	}
	if _, err := h.GroupSnapshot("ghost"); !errors.Is(err, hub.ErrStreamNotFound) {
		t.Errorf("snapshot of ghost group: got %v", err)
	}
	if _, err := h.OfferGroupBatch("ghost", []float64{1}); !errors.Is(err, hub.ErrStreamNotFound) {
		t.Errorf("offer to ghost group: got %v", err)
	}
	if _, err := h.Snapshot("ghost"); !errors.Is(err, hub.ErrStreamNotFound) {
		t.Errorf("stream snapshot must not see groups: got %v", err)
	}
	got := h.ListGroups()
	if len(got) != 1 || got[0] != "x" {
		t.Errorf("ListGroups = %v, want [x]", got)
	}
	if ids := h.List(); len(ids) != 1 || ids[0] != "x" {
		t.Errorf("List = %v, want [x]", ids)
	}
}

// TestHubGroupSweep: idle groups are evicted on the same TTL as
// streams, and group activity stamps keep busy groups alive.
func TestHubGroupSweep(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	h := hub.New(hub.WithIdleTTL(time.Minute), hub.WithClock(clk.Now))
	for _, id := range []string{"idle", "busy"} {
		if err := h.CreateGroup(id, groupSpecs()); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(45 * time.Second)
	if _, err := h.OfferGroupBatch("busy", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Second)
	if n := h.Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	if _, err := h.GroupSnapshot("idle"); !errors.Is(err, hub.ErrStreamNotFound) {
		t.Errorf("idle group survived sweep: %v", err)
	}
	if _, err := h.GroupSnapshot("busy"); err != nil {
		t.Errorf("busy group evicted: %v", err)
	}
	if st := h.Stats(); st.GroupsEvicted != 1 || st.Groups != 1 {
		t.Errorf("stats after sweep: %+v", st)
	}
}

// TestHubGroupOfferRacingFinish mirrors the stream race: once
// FinishGroup wins, OfferGroupBatch must fail with ErrStreamNotFound
// rather than report success for ticks no engine saw.
func TestHubGroupOfferRacingFinish(t *testing.T) {
	h := hub.New()
	if err := h.CreateGroup("g", groupSpecs()[:2]); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		var last error
		for i := 0; i < 100000; i++ {
			if _, err := h.OfferGroupBatch("g", []float64{1, 2, 3}); err != nil {
				last = err
				break
			}
		}
		done <- last
	}()
	if _, _, err := h.FinishGroup("g"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil && !errors.Is(err, hub.ErrStreamNotFound) {
		t.Errorf("group offer racing finish: got %v, want ErrStreamNotFound (or the writer finished first)", err)
	}
}
