package sampling

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/lrd"
	"repro/sampling/estimate"
)

func fgnTrace(t testing.TB, h float64, n int, seed uint64) []float64 {
	t.Helper()
	gen, err := lrd.NewFGN(h, n, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	return gen.Generate(dist.NewRand(seed))
}

func TestWithEstimatorRejectsUnknownMethod(t *testing.T) {
	_, err := New(MustParse("systematic:interval=10"), WithEstimator("nope"))
	if !errors.Is(err, ErrUnknownEstimator) {
		t.Errorf("error = %v, want ErrUnknownEstimator", err)
	}
}

func TestSnapshotWithoutEstimatorHasNoHurst(t *testing.T) {
	eng, err := New(MustParse("systematic:interval=10"))
	if err != nil {
		t.Fatal(err)
	}
	if sum := eng.Snapshot(); sum.Hurst != nil {
		t.Errorf("Hurst = %+v, want nil without WithEstimator", sum.Hurst)
	}
}

// The live preservation readout: an engine with an estimator reports
// the input stream's H, and once enough samples are kept, the kept
// side and the drift resolve too.
func TestEngineReportsHurstPreservation(t *testing.T) {
	const h = 0.8
	f := fgnTrace(t, h, 1<<16, 11)
	eng, err := New(MustParse("systematic:interval=16"), WithEstimator(estimate.AggVar))
	if err != nil {
		t.Fatal(err)
	}
	eng.OfferBatch(f)
	sum := eng.Snapshot()
	if sum.Hurst == nil {
		t.Fatal("Hurst block missing")
	}
	hs := sum.Hurst
	if hs.Method != estimate.AggVar {
		t.Errorf("method = %q, want aggvar", hs.Method)
	}
	if !hs.Input.OK || math.Abs(hs.Input.H-h) > 0.15 {
		t.Errorf("input H = %v (ok=%v), want ~%g", hs.Input.H, hs.Input.OK, h)
	}
	if !hs.Kept.OK {
		t.Fatalf("kept side did not resolve after %d kept samples", sum.Kept)
	}
	// Systematic sampling of fGn preserves self-similarity (the paper's
	// Theorem 1 setting): the kept series' H stays in the LRD range.
	if hs.Kept.H < 0.5 || hs.Kept.H > 1.1 {
		t.Errorf("kept H = %v, outside the plausible LRD range", hs.Kept.H)
	}
	if math.IsNaN(hs.Drift) || math.Abs(hs.Drift-(hs.Kept.H-hs.Input.H)) > 1e-12 {
		t.Errorf("drift = %v, want Kept.H - Input.H = %v", hs.Drift, hs.Kept.H-hs.Input.H)
	}
	if hs.Input.Ticks != int64(sum.Seen) || hs.Kept.Ticks != int64(sum.Kept) {
		t.Errorf("estimator tick counts (%d, %d) disagree with summary (%d, %d)",
			hs.Input.Ticks, hs.Kept.Ticks, sum.Seen, sum.Kept)
	}
}

// Early in a stream the Hurst block must report "not yet" as NaN/false,
// and its JSON form must use null, never NaN.
func TestHurstSummaryBeforeWarmupAndJSON(t *testing.T) {
	eng, err := New(MustParse("systematic:interval=2"), WithEstimator(estimate.Wavelet))
	if err != nil {
		t.Fatal(err)
	}
	ramp := make([]float64, 20)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	eng.OfferBatch(ramp)
	sum := eng.Snapshot()
	if sum.Hurst == nil {
		t.Fatal("Hurst block missing")
	}
	if sum.Hurst.Input.OK || !math.IsNaN(sum.Hurst.Input.H) || !math.IsNaN(sum.Hurst.Drift) {
		t.Errorf("warmup block should be undetermined, got %+v", sum.Hurst)
	}
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "NaN") {
		t.Fatalf("NaN leaked into wire form: %s", data)
	}
	if !strings.Contains(string(data), `"hurst":{"method":"wavelet"`) {
		t.Errorf("hurst block missing from wire form: %s", data)
	}
	if !strings.Contains(string(data), `"drift":null`) {
		t.Errorf("undetermined drift should be null: %s", data)
	}
}

func TestSummaryJSONHurstRoundTrip(t *testing.T) {
	f := fgnTrace(t, 0.75, 1<<14, 13)
	eng, err := New(MustParse("systematic:interval=8"), WithEstimator(estimate.AggVar))
	if err != nil {
		t.Fatal(err)
	}
	eng.OfferBatch(f)
	want := eng.Snapshot()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Summary
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if got.Hurst == nil {
		t.Fatal("Hurst block lost in round trip")
	}
	if *got.Hurst != *want.Hurst {
		t.Errorf("round trip changed the Hurst block:\n got %+v\nwant %+v", *got.Hurst, *want.Hurst)
	}
	// A summary without the block stays without it.
	plain, err := New(MustParse("systematic:interval=8"))
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(plain.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "hurst") {
		t.Errorf("estimator-less summary grew a hurst key: %s", data)
	}
}

// The estimator must not change what the engine samples: same spec,
// same input, same kept output with and without WithEstimator.
func TestEstimatorDoesNotPerturbSampling(t *testing.T) {
	f := heavyTrace(1 << 12)
	plain, err := New(MustParse("stratified:interval=16,seed=3"))
	if err != nil {
		t.Fatal(err)
	}
	est, err := New(MustParse("stratified:interval=16,seed=3"), WithEstimator(estimate.RS))
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.Sample(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := est.Sample(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("kept %d vs %d samples", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
