package core

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// The skip-based kernels change HOW randomness is spent, never WHAT is
// sampled. Two invariant families pin that:
//
//   - state-machine equivalence: on one instance, any mix of the
//     per-tick oracle's Offer (oracle_test.go) and OfferBatch calls
//     yields exactly the per-tick sample sequence (same RNG spend, same
//     indices, same values);
//   - distributional equality: where the kernels spend randomness
//     differently from the retired per-tick draws (Bernoulli's
//     geometric gaps, simple random's reservoir/Floyd selection), the
//     sampling law itself is unchanged — kept-ratio confidence
//     intervals, mean/variance bias, KS distance on inter-sample gaps,
//     and inclusion uniformity below.

// uniformTrace is a deterministic uniform(0,1) series: finite moments
// (mean 1/2, variance 1/12) so the bias tolerances below are plain CLT
// arithmetic, unlike the heavy-tailed traces elsewhere in the suite.
func uniformTrace(n int, seed uint64) []float64 {
	rng := newRand(seed)
	f := make([]float64, n)
	for i := range f {
		f[i] = rng.Float64()
	}
	return f
}

// batchSpecs names every technique, in both parameterizations where
// the technique has two.
var batchSpecs = []string{
	"systematic:interval=37,offset=5",
	"systematic:interval=1",
	"stratified:interval=41,seed=11",
	"stratified:interval=1,seed=3",
	"simple:n=500,seed=12",
	"simple:rate=0.01,seed=13",
	"bernoulli:rate=0.02,seed=14",
	"bernoulli:rate=1,seed=2",
	// BSS: adaptive and static threshold, L=0 (plain systematic), and
	// C < L+1, where probes collide.
	"bss:interval=37,offset=5,L=5,eps=1.0",
	"bss:interval=29,offset=3,L=4,ath=3",
	"bss:interval=29,L=6,ath=3",
	"bss:interval=50,L=0,eps=1.0",
	"bss:interval=3,L=7,eps=0.8",
	"bss:interval=1,L=3,eps=1.0",
	// Longer intervals and larger L.
	"bss:interval=40,L=6,eps=1.0",
	"bss:interval=25,L=4,ath=5",
	"bss:interval=100,L=12,eps=1.3",
	"bss:interval=50,L=5,eps=1.1",
}

// runTicks drives the per-tick oracle.
func runTicks(t *testing.T, spec string, f []float64) []Sample {
	t.Helper()
	eng, err := Lookup(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	out, err := collectTicks(eng, f)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	return out
}

// runBatches drives the batch kernel over the given chunk sizes,
// cycling through them until the series is consumed.
func runBatches(t *testing.T, spec string, f []float64, sizes []int) []Sample {
	t.Helper()
	eng, err := Lookup(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	var out []Sample
	for off, c := 0, 0; off < len(f); c++ {
		end := off + sizes[c%len(sizes)]
		if end > len(f) {
			end = len(f)
		}
		out = eng.OfferBatch(off, f[off:end], out)
		off = end
	}
	tail, err := eng.Finish()
	if err != nil {
		t.Fatalf("%s: finish: %v", spec, err)
	}
	return append(out, tail...)
}

// TestBatchKernelMatchesOffer is the batch kernels' correctness anchor:
// for every kernel and several adversarial batch shapes (single ticks,
// chunks straddling strata, chunks larger than the skip), the batch
// form emits exactly the per-tick oracle's sample sequence.
func TestBatchKernelMatchesOffer(t *testing.T) {
	f := streamTestTrace(30000)
	shapes := [][]int{
		{1},                  // batch form degenerates to per-tick
		{129},                // non-divisor chunks
		{512},                // the serving layer's typical batch
		{1, 7, 41, 513, 129}, // ragged mix
		{30000},              // the whole stream at once
	}
	for _, spec := range batchSpecs {
		want := runTicks(t, spec, f)
		for _, sizes := range shapes {
			got := runBatches(t, spec, f, sizes)
			if len(got) != len(want) {
				t.Fatalf("%s sizes=%v: batch kept %d, tick kept %d", spec, sizes, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s sizes=%v: sample %d differs: batch %+v vs tick %+v",
						spec, sizes, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBatchKernelInterleaved mixes the oracle's Offer and OfferBatch on
// one instance against the pure per-tick run: the two forms share one
// state, so either can pick up where the other stopped.
func TestBatchKernelInterleaved(t *testing.T) {
	f := streamTestTrace(20000)
	for _, spec := range batchSpecs {
		want := runTicks(t, spec, f)
		eng, err := Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		var got []Sample
		for off, turn := 0, 0; off < len(f); turn++ {
			if turn%2 == 0 { // a run of single-tick Offers
				end := off + 83
				if end > len(f) {
					end = len(f)
				}
				for ; off < end; off++ {
					if s, ok := eng.(tickKernel).Offer(off, f[off]); ok {
						got = append(got, s)
					}
				}
			} else { // then a batch
				end := off + 301
				if end > len(f) {
					end = len(f)
				}
				got = eng.OfferBatch(off, f[off:end], got)
				off = end
			}
		}
		tail, err := eng.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tail...)
		if len(got) != len(want) {
			t.Fatalf("%s: interleaved kept %d, tick kept %d", spec, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sample %d differs: interleaved %+v vs tick %+v", spec, i, got[i], want[i])
			}
		}
	}
}

// TestBSSKernelProbes keeps the BSS entries of batchSpecs meaningful:
// every configuration that can schedule probes does qualify some, so
// the batch-vs-tick tests above exercise the probe hops and not only
// the base stride.
func TestBSSKernelProbes(t *testing.T) {
	f := streamTestTrace(30000)
	for _, spec := range batchSpecs {
		if !strings.HasPrefix(spec, "bss:") || strings.Contains(spec, "L=0") || strings.Contains(spec, "interval=1,") {
			continue
		}
		if _, qualified := CountKinds(runTicks(t, spec, f)); qualified == 0 {
			t.Errorf("%s: no qualified probes over %d ticks", spec, len(f))
		}
	}
}

// TestBSSCheckpointWithPendingProbes cuts a batch-fed BSS stream where a
// triggered interval still has probes pending, restores the state into
// a fresh kernel and finishes the stream there in batches: the output
// must equal the uninterrupted per-tick run.
func TestBSSCheckpointWithPendingProbes(t *testing.T) {
	f := streamTestTrace(20000)
	for _, spec := range []string{"bss:interval=37,L=5,eps=1.0", "bss:interval=29,L=6,ath=3"} {
		want := runTicks(t, spec, f)
		eng, err := Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		live := eng.(*StreamBSS)
		var got []Sample
		cut := 0
		for cut < len(f) && (cut < 1000 || live.pi == len(live.extras)) {
			got = live.OfferBatch(cut, f[cut:cut+7], got)
			cut += 7
		}
		if live.pi == len(live.extras) {
			t.Fatalf("%s: no batch boundary with probes pending", spec)
		}
		blob, err := live.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		restored := fresh.(*StreamBSS)
		if err := restored.RestoreState(blob); err != nil {
			t.Fatal(err)
		}
		for off := cut; off < len(f); off += 513 {
			got = restored.OfferBatch(off, f[off:min(off+513, len(f))], got)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: restored run kept %d, tick run kept %d", spec, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sample %d differs: %+v vs %+v", spec, i, got[i], want[i])
			}
		}
	}
}

// TestBSSRestoreRejectsBrokenSchedule: the kernel hops straight to the
// pending probes and the next base, so a blob whose schedule no stream
// of ticks could produce is refused rather than run.
func TestBSSRestoreRejectsBrokenSchedule(t *testing.T) {
	eng, err := Lookup("bss:interval=10,L=3,ath=0.5")
	if err != nil {
		t.Fatal(err)
	}
	live := eng.(*StreamBSS)
	live.OfferBatch(0, []float64{1, 1, 1}, nil) // tick 3, probes 5 and 7 pending
	for _, mutate := range []func(s *StreamBSS){
		func(s *StreamBSS) { s.nextBase = 2 },                   // next base behind the stream
		func(s *StreamBSS) { s.extras, s.pi = []int{2, 5}, 0 },  // probe already passed
		func(s *StreamBSS) { s.extras, s.pi = []int{5, 12}, 0 }, // probe past the next base
		func(s *StreamBSS) { s.extras, s.pi = []int{7, 5}, 0 },  // not ascending
	} {
		broken := *live
		broken.extras = append([]int(nil), live.extras...)
		mutate(&broken)
		blob, err := broken.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := Lookup("bss:interval=10,L=3,ath=0.5")
		if err := fresh.(*StreamBSS).RestoreState(blob); err == nil {
			t.Errorf("restored a broken schedule: tick=%d nextBase=%d pending=%v", broken.tick, broken.nextBase, broken.extras[broken.pi:])
		}
	}
}

// TestBatchKernelsDoNotAllocate: once warm (the output buffer and the
// BSS probe list at capacity), no kernel allocates per batch. Rate-mode
// simple random is exempt: buffering the stream is its state.
func TestBatchKernelsDoNotAllocate(t *testing.T) {
	f := streamTestTrace(1 << 16)
	for _, spec := range batchSpecs {
		if strings.HasPrefix(spec, "simple:rate") {
			continue
		}
		eng, err := Lookup(spec)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]Sample, 0, 1024)
		off := 0
		batch := func() {
			if off+512 > len(f) {
				off = 0
			}
			dst = eng.OfferBatch(off, f[off:off+512], dst[:0])
			off += 512
		}
		for i := 0; i < 64; i++ {
			batch()
		}
		if allocs := testing.AllocsPerRun(200, batch); allocs != 0 {
			t.Errorf("%s: %.2f allocs per 512-tick batch, want 0", spec, allocs)
		}
	}
}

// gapsOf returns the inter-sample index differences d_i =
// index_{i+1} - index_i (so d >= 1).
func gapsOf(samples []Sample) []int {
	gaps := make([]int, 0, len(samples))
	for i := 1; i < len(samples); i++ {
		gaps = append(gaps, samples[i].Index-samples[i-1].Index)
	}
	return gaps
}

// ksDistance is the one-sample Kolmogorov-Smirnov statistic of integer
// observations against a CDF evaluated at integers.
func ksDistance(obs []int, cdf func(int) float64) float64 {
	sorted := append([]int(nil), obs...)
	sort.Ints(sorted)
	n := float64(len(sorted))
	var d float64
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if diff := math.Abs(float64(j)/n - cdf(sorted[i])); diff > d {
			d = diff
		}
		i = j
	}
	return d
}

// ksTwoSample is the two-sample KS statistic between integer samples.
func ksTwoSample(a, b []int) float64 {
	sa := append([]int(nil), a...)
	sb := append([]int(nil), b...)
	sort.Ints(sa)
	sort.Ints(sb)
	na, nb := float64(len(sa)), float64(len(sb))
	var d float64
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		v := sa[i]
		if sb[j] < v {
			v = sb[j]
		}
		for i < len(sa) && sa[i] == v {
			i++
		}
		for j < len(sb) && sb[j] == v {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// TestBernoulliGapLaw: the skip kernel must reproduce the geometric
// inter-sample gap law of Eq. (13), P(D <= d) = 1 - (1-p)^d, which the
// retired per-tick uniform draws sampled implicitly. One long fixed-seed
// run; the KS threshold is ~1.5x the 5% critical value 1.36/sqrt(m).
func TestBernoulliGapLaw(t *testing.T) {
	const p = 0.01
	f := uniformTrace(400000, 61)
	samples := runTicks(t, "bernoulli:rate=0.01,seed=17", f)

	kept := float64(len(samples))
	sd := math.Sqrt(p * (1 - p) * float64(len(f)))
	if diff := math.Abs(kept - p*float64(len(f))); diff > 4*sd {
		t.Errorf("kept %v samples, want %v +- %v", kept, p*float64(len(f)), 4*sd)
	}

	gaps := gapsOf(samples)
	d := ksDistance(gaps, func(d int) float64 {
		if d < 1 {
			return 0
		}
		return 1 - math.Pow(1-p, float64(d))
	})
	if limit := 2.0 / math.Sqrt(float64(len(gaps))); d > limit {
		t.Errorf("gap KS distance %v exceeds %v over %d gaps", d, limit, len(gaps))
	}

	assertMoments(t, samples, 1.0/2, 1.0/12, 0.02)
}

// assertMoments checks the kept values' mean and variance against the
// uniform(0,1) population moments within tol.
func assertMoments(t *testing.T, samples []Sample, mean, variance, tol float64) {
	t.Helper()
	var sum, sq float64
	for _, s := range samples {
		sum += s.Value
	}
	m := sum / float64(len(samples))
	for _, s := range samples {
		sq += (s.Value - m) * (s.Value - m)
	}
	v := sq / float64(len(samples)-1)
	if math.Abs(m-mean) > tol {
		t.Errorf("kept mean %v, want %v +- %v", m, mean, tol)
	}
	if math.Abs(v-variance) > tol {
		t.Errorf("kept variance %v, want %v +- %v", v, variance, tol)
	}
}

// legacySimpleRandom is the retired implementation kept as the
// distributional reference: buffer everything, partial Fisher-Yates
// over an index array, emit in index order. Exact uniform sampling
// without replacement, like the kernels that replaced it.
func legacySimpleRandom(seed uint64, f []float64, n int) []Sample {
	rng := newRand(seed)
	idx := make([]int, len(f))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + rng.IntN(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	chosen := append([]int(nil), idx[:n]...)
	sort.Ints(chosen)
	out := make([]Sample, n)
	for i, k := range chosen {
		out[i] = Sample{Index: k, Value: f[k]}
	}
	return out
}

// TestSimpleRandomRateDistribution: rate mode must agree with the
// retired Fisher-Yates draw in law — exact kept count, two-sample KS on
// inter-sample gaps, unbiased moments.
func TestSimpleRandomRateDistribution(t *testing.T) {
	f := uniformTrace(400000, 62)
	samples := runTicks(t, "simple:rate=0.01,seed=21", f)
	if want := len(f) / 100; len(samples) != want {
		t.Fatalf("rate mode kept %d samples, want exactly %d", len(samples), want)
	}
	legacy := legacySimpleRandom(77, f, len(samples))
	d := ksTwoSample(gapsOf(samples), gapsOf(legacy))
	// 5% two-sample critical value is 1.36*sqrt(2/m); allow ~1.5x.
	limit := 2.0 * math.Sqrt(2/float64(len(samples)-1))
	if d > limit {
		t.Errorf("gap KS distance to the legacy draw %v exceeds %v", d, limit)
	}
	assertMoments(t, samples, 1.0/2, 1.0/12, 0.02)
}

// TestReservoirInclusionUniform: the fixed-n Vitter reservoir must give
// every position the same inclusion probability n/N. 300 fixed-seed
// trials, inclusion counted per tenth of the stream; each block must
// sit within 5 standard deviations of the expectation.
func TestReservoirInclusionUniform(t *testing.T) {
	const (
		trials = 300
		n      = 50
		pop    = 5000
		blocks = 10
	)
	f := uniformTrace(pop, 63)
	var meanSum float64
	counts := make([]int, blocks)
	for trial := 0; trial < trials; trial++ {
		eng, err := SimpleRandom{N: n, Rng: newRand(uint64(1000 + trial))}.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		eng.OfferBatch(0, f, nil)
		got, err := eng.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("trial %d: reservoir returned %d samples, want %d", trial, len(got), n)
		}
		var sum float64
		last := -1
		for _, s := range got {
			if s.Index <= last || s.Index >= pop {
				t.Fatalf("trial %d: bad or unsorted index %d after %d", trial, s.Index, last)
			}
			last = s.Index
			counts[s.Index/(pop/blocks)]++
			sum += s.Value
		}
		meanSum += sum / n
	}
	// Per trial a block holds ~hypergeometric(n/blocks) of the picks;
	// summed over trials the expectation is trials*n/blocks with
	// variance ~trials*n/blocks*(1-1/blocks).
	want := float64(trials*n) / blocks
	sd := math.Sqrt(want * (1 - 1.0/blocks))
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*sd {
			t.Errorf("block %d: %d inclusions, want %v +- %v", b, c, want, 5*sd)
		}
	}
	// The average of per-trial sample means is a CLT-tight estimate of
	// the population mean.
	avg := meanSum / trials
	if tol := 5 * math.Sqrt(1.0/12/n/trials); math.Abs(avg-0.5) > tol {
		t.Errorf("average sample mean %v, want 0.5 +- %v", avg, tol)
	}
}

// TestIntervalForRateBoundaries pins the documented rounding contract:
// interval = nearest integer to 1/r, halves rounding up, floored at 1.
func TestIntervalForRateBoundaries(t *testing.T) {
	cases := []struct {
		rate float64
		want int
	}{
		{1, 1},             // rate 1 keeps every tick
		{0.5, 2},           // exact reciprocal
		{0.4, 3},           // 1/r = 2.5: the half rounds UP, not to even
		{1.0 / 3, 3},       // exact reciprocal of an odd interval
		{0.3339, 3},        // just above 1/3: still nearest 3
		{0.3331, 3},        // just below 1/3: still nearest 3
		{0.2860, 3},        // 1/r ~ 3.497: rounds down to 3
		{0.2853, 4},        // 1/r ~ 3.505: rounds up to 4
		{0.7, 1},           // 1/r ~ 1.43 rounds to 1 — keeps everything
		{0.6, 2},           // 1/r ~ 1.67 rounds to 2
		{0.9999, 1},        // near-1 rates clamp at interval 1
		{0.001, 1000},      // the benchmark operating point
		{1.0 / 1001, 1001}, // non-power-of-ten reciprocal survives the float trip
	}
	for _, c := range cases {
		got, err := IntervalForRate(c.rate)
		if err != nil {
			t.Errorf("IntervalForRate(%v): %v", c.rate, err)
			continue
		}
		if got != c.want {
			t.Errorf("IntervalForRate(%v) = %d, want %d", c.rate, got, c.want)
		}
	}
	for _, bad := range []float64{0, -0.1, 1.0001, 2, math.NaN(), math.Inf(1)} {
		if _, err := IntervalForRate(bad); err == nil {
			t.Errorf("IntervalForRate(%v): expected error", bad)
		}
	}
}
