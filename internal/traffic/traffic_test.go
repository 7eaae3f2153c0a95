package traffic

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/lrd"
	"repro/internal/stats"
)

func defaultOnOff(ticks int) OnOffConfig {
	return OnOffConfig{
		Sources:  32,
		AlphaOn:  1.4,
		AlphaOff: 1.4,
		MeanOn:   10,
		MeanOff:  30,
		Rate:     1,
		Ticks:    ticks,
	}
}

func TestOnOffValidation(t *testing.T) {
	base := defaultOnOff(100)
	mutations := []func(*OnOffConfig){
		func(c *OnOffConfig) { c.Sources = 0 },
		func(c *OnOffConfig) { c.AlphaOn = 1 },
		func(c *OnOffConfig) { c.AlphaOn = 2.5 },
		func(c *OnOffConfig) { c.AlphaOff = 0.5 },
		func(c *OnOffConfig) { c.MeanOn = 0 },
		func(c *OnOffConfig) { c.MeanOff = -1 },
		func(c *OnOffConfig) { c.Rate = 0 },
		func(c *OnOffConfig) { c.Ticks = 0 },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("base config should validate: %v", err)
	}
}

func TestOnOffHurstFormula(t *testing.T) {
	c := defaultOnOff(10)
	c.AlphaOn, c.AlphaOff = 1.4, 1.8
	if got := c.Hurst(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Hurst = %g, want 0.8 (driven by the heavier tail)", got)
	}
}

func TestOnOffMeanMatchesTheory(t *testing.T) {
	cfg := defaultOnOff(1 << 16)
	x, err := GenerateOnOff(cfg, dist.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != cfg.Ticks {
		t.Fatalf("length %d, want %d", len(x), cfg.Ticks)
	}
	want := cfg.TheoreticalMean()
	got := stats.Mean(x)
	if math.Abs(got-want)/want > 0.25 {
		t.Errorf("aggregate mean %g vs theoretical %g (heavy tails allow slack, but not this much)", got, want)
	}
	// Values are bounded by Sources*Rate and nonnegative.
	lo, hi := stats.MinMax(x)
	if lo < 0 || hi > float64(cfg.Sources)*cfg.Rate+1e-9 {
		t.Errorf("values outside [0, %g]: min=%g max=%g", float64(cfg.Sources)*cfg.Rate, lo, hi)
	}
}

func TestOnOffIsLRD(t *testing.T) {
	cfg := defaultOnOff(1 << 17)
	cfg.AlphaOn, cfg.AlphaOff = 1.4, 1.4 // H = 0.8
	x, err := GenerateOnOff(cfg, dist.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	est, err := lrd.HurstWavelet(x, lrd.WaveletOptions{JMin: 4})
	if err != nil {
		t.Fatal(err)
	}
	if est.H < 0.65 || est.H > 0.98 {
		t.Errorf("wavelet H = %.3f, want clearly LRD (~0.8)", est.H)
	}
}

func TestOnOffDeterministicGivenSeed(t *testing.T) {
	cfg := defaultOnOff(2048)
	a, err := GenerateOnOff(cfg, dist.NewRand(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateOnOff(cfg, dist.NewRand(99))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different series at %d", i)
		}
	}
}

func defaultSynth() SynthConfig {
	return SynthConfig{
		Pairs:     50,
		Duration:  120,
		AlphaOn:   1.76,
		MeanOn:    0.5,
		MeanOff:   5,
		MeanRate:  1e5,
		RateAlpha: 1.71,
	}
}

func TestSynthValidation(t *testing.T) {
	base := defaultSynth()
	mutations := []func(*SynthConfig){
		func(c *SynthConfig) { c.Pairs = 0 },
		func(c *SynthConfig) { c.Duration = 0 },
		func(c *SynthConfig) { c.AlphaOn = 1 },
		func(c *SynthConfig) { c.AlphaOn = 2 },
		func(c *SynthConfig) { c.MeanOn = 0 },
		func(c *SynthConfig) { c.MeanOff = -1 },
		func(c *SynthConfig) { c.MeanRate = 0 },
		func(c *SynthConfig) { c.RateAlpha = 3 },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestSynthesizeTraceBasics(t *testing.T) {
	cfg := defaultSynth()
	pkts, err := SynthesizeTrace(cfg, dist.NewRand(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 1000 {
		t.Fatalf("only %d packets generated", len(pkts))
	}
	if !sort.SliceIsSorted(pkts, func(i, j int) bool { return pkts[i].Time < pkts[j].Time }) {
		t.Error("trace not time-sorted")
	}
	for i, p := range pkts {
		if p.Time < 0 || p.Time > cfg.Duration {
			t.Fatalf("packet %d at time %g outside [0, %g]", i, p.Time, cfg.Duration)
		}
		if p.Size == 0 {
			t.Fatalf("packet %d has zero size", i)
		}
	}
	var bytes uint64
	for _, p := range pkts {
		bytes += uint64(p.Size)
	}
	if mean := float64(bytes) / float64(len(pkts)); mean < 40 || mean > 1500 {
		t.Errorf("mean packet length %g outside [40, 1500]", mean)
	}
}

func TestBinBytesConservation(t *testing.T) {
	// The binned series times granularity must conserve total bytes.
	prop := func(seed uint64) bool {
		rng := dist.NewRand(seed)
		pkts := make([]Packet, 500)
		var total float64
		for i := range pkts {
			pkts[i] = Packet{Time: rng.Float64() * 10, Size: uint32(rng.IntN(1500) + 1)}
			total += float64(pkts[i].Size)
		}
		sort.Slice(pkts, func(i, j int) bool { return pkts[i].Time < pkts[j].Time })
		f, err := BinBytes(pkts, 0.1, 10.5)
		if err != nil {
			return false
		}
		var binned float64
		for _, v := range f {
			binned += v * 0.1
		}
		return math.Abs(binned-total) < 1e-6*total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBinBytesErrors(t *testing.T) {
	if _, err := BinBytes(nil, 0.1, 1); err == nil {
		t.Error("expected error for empty trace")
	}
	if _, err := BinBytes([]Packet{{Time: 0, Size: 1}}, 0, 1); err == nil {
		t.Error("expected error for zero granularity")
	}
	if _, err := BinBytes([]Packet{{Time: 0, Size: 1}}, 10, 5); err == nil {
		t.Error("expected error for duration < granularity")
	}
}

func TestOnPeriods(t *testing.T) {
	f := []float64{0, 5, 6, 0, 0, 7, 0, 8, 8, 8}
	got := OnPeriods(f, 4)
	want := []float64{2, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("OnPeriods = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("OnPeriods[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if got := OnPeriods([]float64{1, 1}, 5); len(got) != 0 {
		t.Errorf("no runs expected, got %v", got)
	}
}

func TestOnPeriodsHeavyTailedForOnOff(t *testing.T) {
	// Section V-B's observation: the 1-burst periods of a self-similar
	// process are heavy tailed. Generate ON/OFF traffic and verify the
	// fitted tail index is in the heavy regime (< 3 by a wide margin).
	cfg := defaultOnOff(1 << 16)
	cfg.AlphaOn, cfg.AlphaOff = 1.3, 1.3
	x, err := GenerateOnOff(cfg, dist.NewRand(11))
	if err != nil {
		t.Fatal(err)
	}
	mean := stats.Mean(x)
	b := OnPeriods(x, 0.5*mean)
	if len(b) < 100 {
		t.Fatalf("only %d bursts found", len(b))
	}
	fit, err := dist.FitParetoTail(b, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha > 3 || fit.Alpha < 0.5 {
		t.Errorf("burst tail index %g, want heavy-tailed (roughly 1-3)", fit.Alpha)
	}
}

func TestSortedCopy(t *testing.T) {
	x := []float64{3, 1, 2}
	s := SortedCopy(x)
	if !sort.Float64sAreSorted(s) {
		t.Error("copy not sorted")
	}
	if x[0] != 3 {
		t.Error("input mutated")
	}
}

func BenchmarkGenerateOnOff64k(b *testing.B) {
	cfg := defaultOnOff(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateOnOff(cfg, dist.NewRand(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesizeTrace(b *testing.B) {
	cfg := defaultSynth()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SynthesizeTrace(cfg, dist.NewRand(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
