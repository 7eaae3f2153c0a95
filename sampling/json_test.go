package sampling

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	cases := []Spec{
		MustParse("systematic:interval=1000,offset=13"),
		MustParse("bss:rate=1e-3,L=10,eps=1.0"),
		MustParse("bernoulli:rate=0.01,seed=7"),
		{Technique: "systematic"},
		{Technique: "custom", Params: map[string]string{"odd value": "a=b,c"}},
	}
	for _, want := range cases {
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("marshal %v: %v", want, err)
		}
		var got Spec
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !sameSpec(got, want) {
			t.Errorf("round trip changed the spec: %v -> %s -> %v", want, data, got)
		}
	}
}

func TestSpecJSONOmitsEmptyParams(t *testing.T) {
	data, err := json.Marshal(Spec{Technique: "systematic"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "params") {
		t.Errorf("empty params serialized: %s", data)
	}
}

func TestSpecJSONAcceptsStringForm(t *testing.T) {
	var got Spec
	if err := json.Unmarshal([]byte(`"bss:rate=1e-3,L=10"`), &got); err != nil {
		t.Fatal(err)
	}
	want := MustParse("bss:rate=1e-3,L=10")
	if !sameSpec(got, want) {
		t.Errorf("string form parsed to %v, want %v", got, want)
	}
	if err := json.Unmarshal([]byte(`":broken"`), &got); err == nil {
		t.Error("bad spec string unmarshaled without error")
	}
}

func TestSpecJSONRejectsMissingTechnique(t *testing.T) {
	var got Spec
	if err := json.Unmarshal([]byte(`{"params":{"rate":"0.1"}}`), &got); err == nil {
		t.Error("spec object without technique unmarshaled without error")
	}
}

func TestSpecJSONRejectsUnknownFields(t *testing.T) {
	var got Spec
	// A typo'd "parms" key must fail loudly, not silently drop every
	// parameter.
	if err := json.Unmarshal([]byte(`{"technique":"systematic","parms":{"interval":"10"}}`), &got); err == nil {
		t.Error("spec object with unknown field unmarshaled without error")
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	at := time.Date(2026, 7, 27, 12, 0, 0, 123456789, time.UTC)
	eng, err := New(MustParse("systematic:interval=2"), WithClock(func() time.Time { return at }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sample([]float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	want := eng.Snapshot()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Summary
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if got.Technique != want.Technique || got.Spec != want.Spec ||
		got.Seen != want.Seen || got.Kept != want.Kept ||
		got.Qualified != want.Qualified || got.Budget != want.Budget ||
		got.Mean != want.Mean || got.Variance != want.Variance ||
		got.CILow != want.CILow || got.CIHigh != want.CIHigh ||
		got.Finished != want.Finished || got.Uptime != want.Uptime ||
		!got.At.Equal(want.At) {
		t.Errorf("round trip changed the summary:\n got %+v\nwant %+v", got, want)
	}
}

func TestSummaryJSONNaNBecomesNull(t *testing.T) {
	s := Summary{Technique: "systematic", Mean: math.NaN(), Variance: math.NaN(),
		CILow: math.NaN(), CIHigh: math.NaN(), At: time.Unix(0, 0).UTC()}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("NaN summary failed to marshal: %v", err)
	}
	for _, key := range []string{`"mean":null`, `"variance":null`, `"ci_low":null`, `"ci_high":null`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("missing %s in %s", key, data)
		}
	}
	var got Summary
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Mean) || !math.IsNaN(got.Variance) || !math.IsNaN(got.CILow) || !math.IsNaN(got.CIHigh) {
		t.Errorf("null moments did not come back as NaN: %+v", got)
	}
}

func TestSummaryJSONError(t *testing.T) {
	eng, err := New(MustParse("simple:n=5"))
	if err != nil {
		t.Fatal(err)
	}
	// A 3-tick stream cannot yield 5 simple random samples: Finish errors
	// and the snapshot carries the deferred error.
	eng.OfferBatch([]float64{1, 2, 3})
	if _, err := eng.Finish(); err == nil {
		t.Fatal("expected a finish error")
	}
	want := eng.Snapshot()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Summary
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Err == nil || got.Err.Error() != want.Err.Error() {
		t.Errorf("error round trip: got %v, want %v", got.Err, want.Err)
	}
	if !got.Finished {
		t.Error("finished flag lost in round trip")
	}
}

// comparisonFixture builds a deterministic finished comparison with an
// estimator attached, the richest document the group wire form carries.
func comparisonFixture(t *testing.T) Comparison {
	t.Helper()
	at := time.Date(2026, 7, 27, 12, 0, 0, 123456789, time.UTC)
	g, err := NewGroup(
		[]Spec{MustParse("systematic:interval=2"), MustParse("bernoulli:rate=0.5,seed=9")},
		WithClock(func() time.Time { return at }),
		WithEstimator("aggvar"),
	)
	if err != nil {
		t.Fatal(err)
	}
	series := make([]float64, 256)
	for i := range series {
		series[i] = float64(i%17) + 0.25
	}
	g.OfferBatch(series)
	if _, err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	return g.Snapshot()
}

func sameComparisonNumbers(a, b Fidelity) bool {
	same := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		return x == y
	}
	return same(a.KeptRatio, b.KeptRatio) && same(a.MeanBias, b.MeanBias) &&
		same(a.VarianceBias, b.VarianceBias) && same(a.HurstDrift, b.HurstDrift)
}

func TestComparisonJSONRoundTrip(t *testing.T) {
	want := comparisonFixture(t)
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Comparison
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if got.Seen != want.Seen || got.Mean != want.Mean || got.Variance != want.Variance ||
		got.Method != want.Method || got.Finished != want.Finished ||
		got.Uptime != want.Uptime || !got.At.Equal(want.At) {
		t.Errorf("round trip changed the comparison header:\n got %+v\nwant %+v", got, want)
	}
	if got.Hurst == nil || *got.Hurst != *want.Hurst {
		t.Errorf("round trip changed the input Hurst point: got %+v want %+v", got.Hurst, want.Hurst)
	}
	if len(got.Members) != len(want.Members) {
		t.Fatalf("round trip changed the member count: %d vs %d", len(got.Members), len(want.Members))
	}
	for i := range want.Members {
		gm, wm := got.Members[i], want.Members[i]
		if gm.Summary.Technique != wm.Summary.Technique || gm.Summary.Kept != wm.Summary.Kept ||
			gm.Summary.Mean != wm.Summary.Mean || gm.Summary.Hurst == nil {
			t.Errorf("member %d summary changed:\n got %+v\nwant %+v", i, gm.Summary, wm.Summary)
		}
		if !sameComparisonNumbers(gm.Fidelity, wm.Fidelity) {
			t.Errorf("member %d fidelity changed:\n got %+v\nwant %+v", i, gm.Fidelity, wm.Fidelity)
		}
	}
}

// TestComparisonJSONNaNBecomesNull: a freshly created group has every
// moment and score in its NaN state; the wire form must carry null,
// never a bare NaN the encoder would reject.
func TestComparisonJSONNaNBecomesNull(t *testing.T) {
	g, err := NewGroup([]Spec{MustParse("systematic:interval=2")},
		WithClock(func() time.Time { return time.Unix(0, 0).UTC() }))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(g.Snapshot())
	if err != nil {
		t.Fatalf("zero-state comparison failed to marshal: %v", err)
	}
	for _, key := range []string{`"mean":null`, `"variance":null`,
		`"kept_ratio":null`, `"mean_bias":null`, `"variance_bias":null`, `"hurst_drift":null`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("missing %s in %s", key, data)
		}
	}
	var got Comparison
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got.Mean) || !math.IsNaN(got.Members[0].Fidelity.KeptRatio) ||
		!math.IsNaN(got.Members[0].Fidelity.HurstDrift) {
		t.Errorf("null scores did not come back as NaN: %+v", got)
	}
	if got.Hurst != nil {
		t.Errorf("estimator-less comparison grew a Hurst point: %+v", got.Hurst)
	}
}

func TestComparisonJSONRejectsUnknownFields(t *testing.T) {
	data, err := json.Marshal(comparisonFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	// A typo'd top-level key must fail loudly, not silently decode to
	// the zero comparison.
	bad := strings.Replace(string(data), `"seen":`, `"sene":`, 1)
	var got Comparison
	if err := json.Unmarshal([]byte(bad), &got); err == nil {
		t.Error("comparison with unknown field unmarshaled without error")
	}
}

// summaryFloats lists every float field of a summary with a Hurst
// block, in document order.
func summaryFloats(s *Summary) []*float64 {
	h := s.Hurst
	return []*float64{&s.Mean, &s.Variance, &s.CILow, &s.CIHigh,
		&h.Input.H, &h.Input.Beta, &h.Kept.H, &h.Kept.Beta, &h.Drift}
}

// comparisonFloats lists every float field of a comparison with an
// input Hurst point, in document order.
func comparisonFloats(c *Comparison) []*float64 {
	out := []*float64{&c.Mean, &c.Variance, &c.Hurst.H, &c.Hurst.Beta}
	for i := range c.Members {
		m := &c.Members[i]
		out = append(out, summaryFloats(&m.Summary)...)
		out = append(out, &m.Fidelity.KeptRatio, &m.Fidelity.MeanBias, &m.Fidelity.VarianceBias, &m.Fidelity.HurstDrift)
	}
	return out
}

// FuzzDocumentJSON fills every float field of a summary with a Hurst
// block and of a two-member comparison with raw bits: NaN payloads,
// infinities, signed zeros, subnormals, the extremes. Marshal must
// never fail and must give valid JSON, and decoding it must give back
// every finite value bit for bit, and NaN for NaN or ±Inf.
func FuzzDocumentJSON(f *testing.F) {
	special := []uint64{
		0x7ff8000000000001, 0xfff4000000000000, // NaN payloads, quiet and signalling
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		0, 1 << 63, // ±0
		1, 0x000fffffffffffff, 1<<63 | 1, // subnormals
		math.Float64bits(math.MaxFloat64), math.Float64bits(-math.MaxFloat64),
		math.Float64bits(1e-7), math.Float64bits(1e21), math.Float64bits(0.5),
	}
	for i := range special {
		var seed []byte
		for j := range special {
			seed = binary.LittleEndian.AppendUint64(seed, special[(i+j)%len(special)])
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Each float takes the next 8 bytes of raw, cycling.
		next := 0
		fill := func(fields []*float64) {
			for _, p := range fields {
				var b [8]byte
				for i := range b {
					if len(raw) > 0 {
						b[i] = raw[(next+i)%len(raw)]
					}
				}
				next += 8
				*p = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			}
		}
		at := time.Date(2026, 7, 27, 12, 0, 0, 1, time.UTC)
		summary := func() Summary {
			return Summary{Technique: "bss", At: at, Hurst: &HurstSummary{Method: "aggvar"}}
		}
		sum := summary()
		fill(summaryFloats(&sum))
		var sumBack Summary
		roundTrip(t, &sum, &sumBack)
		if sumBack.Hurst == nil {
			t.Fatal("summary lost its Hurst block")
		}
		sameFloats(t, summaryFloats(&sum), summaryFloats(&sumBack))

		cmp := Comparison{Seen: 3, Method: "aggvar", Hurst: &HurstPoint{}, At: at,
			Members: []TechniqueReport{{Summary: summary()}, {Summary: summary()}}}
		fill(comparisonFloats(&cmp))
		var cmpBack Comparison
		roundTrip(t, &cmp, &cmpBack)
		if cmpBack.Hurst == nil || len(cmpBack.Members) != 2 ||
			cmpBack.Members[0].Summary.Hurst == nil || cmpBack.Members[1].Summary.Hurst == nil {
			t.Fatalf("comparison changed shape: %+v", cmpBack)
		}
		sameFloats(t, comparisonFloats(&cmp), comparisonFloats(&cmpBack))
	})
}

// roundTrip marshals in, which must give valid JSON, and decodes it
// into out.
func roundTrip(t *testing.T, in, out any) {
	t.Helper()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !json.Valid(data) {
		t.Fatalf("invalid JSON: %s", data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
}

// sameFloats holds each decoded float to its source: bit for bit when
// finite, NaN when NaN or ±Inf.
func sameFloats(t *testing.T, want, got []*float64) {
	t.Helper()
	for i := range want {
		w, g := *want[i], *got[i]
		if math.IsNaN(w) || math.IsInf(w, 0) {
			if !math.IsNaN(g) {
				t.Errorf("field %d: %v came back as %v, want NaN", i, w, g)
			}
		} else if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("field %d: %v (%#x) came back as %v (%#x)", i, w, math.Float64bits(w), g, math.Float64bits(g))
		}
	}
}
