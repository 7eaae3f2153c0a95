package sampling_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/sampling"
	"repro/sampling/estimate"
)

var updateJSON = flag.Bool("update", false, "rewrite testdata/json_v1.golden from the current output")

// goldenSpecs covers every technique, both forms of simple.
var goldenSpecs = []string{
	"systematic:interval=16,offset=3",
	"stratified:interval=16,seed=11",
	"simple:n=32,seed=11",
	"simple:rate=0.01,seed=11",
	"bernoulli:rate=0.05,seed=11",
	"bss:interval=32,L=3,eps=0.8",
}

// goldenMethods is every estimator choice: none, then each method.
var goldenMethods = []estimate.Method{"", estimate.AggVar, estimate.Wavelet, estimate.RS}

// goldenClock advances by a fixed odd step on every reading, so At and
// Uptime differ between documents yet stay a pure function of the calls.
func goldenClock() func() time.Time {
	t := time.Date(2026, 7, 27, 12, 0, 0, 123456789, time.UTC)
	return func() time.Time {
		t = t.Add(1500*time.Millisecond + 7)
		return t
	}
}

// goldenTrace is a deterministic bursty positive series (no RNG).
func goldenTrace(n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = 1 + math.Sin(float64(i)/7)*math.Cos(float64(i)/101) + float64(i%13)/13
	}
	return f
}

func goldenOpts(method estimate.Method) []sampling.Option {
	opts := []sampling.Option{sampling.WithClock(goldenClock())}
	if method != "" {
		opts = append(opts, sampling.WithEstimator(method))
	}
	return opts
}

// goldenLine is one served document: its kind picks the decode type.
type goldenLine struct {
	kind, name string
	doc        any
}

func goldenDocuments(t *testing.T) []goldenLine {
	t.Helper()
	var out []goldenLine
	add := func(kind, name string, doc any) { out = append(out, goldenLine{kind, name, doc}) }
	trace := goldenTrace(5000)
	for _, method := range goldenMethods {
		label := string(method)
		if label == "" {
			label = "none"
		}
		for _, spec := range goldenSpecs {
			eng, err := sampling.New(sampling.MustParse(spec), goldenOpts(method)...)
			if err != nil {
				t.Fatal(err)
			}
			name := label + "/" + spec
			add("summary", name+"/0", eng.Snapshot())
			if _, err := eng.OfferBatch(trace[:3]); err != nil {
				t.Fatal(err)
			}
			add("summary", name+"/3", eng.Snapshot())
			if _, err := eng.OfferBatch(trace[3:]); err != nil {
				t.Fatal(err)
			}
			sum := eng.Snapshot()
			add("summary", name+"/5000", sum)
			if sum.Hurst != nil {
				add("hurst", name+"/5000", *sum.Hurst)
			}
			if _, err := eng.Finish(); err != nil {
				t.Fatal(err)
			}
			add("summary", name+"/finished", eng.Snapshot())
		}
		g, err := sampling.NewGroup(parseAll(t, goldenSpecs), goldenOpts(method)...)
		if err != nil {
			t.Fatal(err)
		}
		add("comparison", label+"/group/0", g.Snapshot())
		if _, err := g.OfferBatch(trace[:3]); err != nil {
			t.Fatal(err)
		}
		add("comparison", label+"/group/3", g.Snapshot())
		if _, err := g.OfferBatch(trace[3:]); err != nil {
			t.Fatal(err)
		}
		add("comparison", label+"/group/5000", g.Snapshot())
		if _, err := g.Finish(); err != nil {
			t.Fatal(err)
		}
		add("comparison", label+"/group/finished", g.Snapshot())
	}

	// A 3-tick stream cannot yield 5 simple random samples: Finish
	// records the error the summary then carries.
	eng, err := sampling.New(sampling.MustParse("simple:n=5,seed=1"), goldenOpts(estimate.AggVar)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OfferBatch(trace[:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Finish(); err == nil {
		t.Fatal("expected a finish error")
	}
	add("summary", "finish-error", eng.Snapshot())

	at := time.Date(2026, 7, 27, 12, 0, 0, 5, time.FixedZone("", -7*3600))
	point := sampling.HurstPoint{H: 1e21, Beta: math.Copysign(0, -1), Levels: 3, Ticks: 1 << 40, OK: true}
	add("summary", "hand-built", sampling.Summary{
		Technique: `a<b>&c "quoted" \ é` + "\u2028\t",
		Spec:      "x:y=<1>&z=\"2\"",
		Seen:      -1, Kept: math.MaxInt64, Qualified: 0, Budget: 7,
		Mean: math.Inf(1), Variance: math.Copysign(0, -1), CILow: 1e-7, CIHigh: 1e21,
		Finished: true,
		Err:      errors.New(`bad <tick> & "value"`),
		Hurst: &sampling.HurstSummary{Method: "rs", Input: point,
			Kept: sampling.HurstPoint{H: math.NaN(), Beta: math.Inf(-1)}, Drift: 1.0000000000000002e-6},
		At:     at,
		Uptime: -time.Nanosecond,
	})
	add("comparison", "hand-built", sampling.Comparison{
		Seen: 12, Mean: 123456789012345680000, Variance: 9.999999999999999e-7,
		Method: "aggvar", Hurst: &point,
		Members: []sampling.TechniqueReport{{
			Summary:  sampling.Summary{Technique: "systematic", Mean: math.NaN(), At: at},
			Fidelity: sampling.Fidelity{KeptRatio: 0.5, MeanBias: -1e-300, VarianceBias: math.Inf(-1), HurstDrift: 5e-324},
		}},
		At: at,
	})
	return out
}

func parseAll(t *testing.T, specs []string) []sampling.Spec {
	t.Helper()
	out := make([]sampling.Spec, len(specs))
	for i, s := range specs {
		out[i] = sampling.MustParse(s)
	}
	return out
}

// TestJSONGolden pins every served document byte for byte: each
// technique under each estimator choice, engines and groups from empty
// to finished, a finish error, and hand-built documents with
// HTML-significant strings and edge-case numbers. Each type's own
// MarshalJSON must already give those bytes, and decoding a line and
// encoding it again must give the line back.
func TestJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, l := range goldenDocuments(t) {
		data, err := json.Marshal(l.doc)
		if err != nil {
			t.Fatalf("%s %s: %v", l.kind, l.name, err)
		}
		// encoding/json compacts and HTML-escapes what MarshalJSON
		// returns; the document must already be in that form.
		if direct, err := l.doc.(json.Marshaler).MarshalJSON(); err != nil || !bytes.Equal(direct, data) {
			t.Errorf("%s %s: MarshalJSON gives %s (%v), encoding/json serves %s", l.kind, l.name, direct, err, data)
		}
		fmt.Fprintf(&buf, "%s %s %s\n", l.kind, l.name, data)
	}
	path := filepath.Join("testdata", "json_v1.golden")
	if *updateJSON {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := strings.Split(buf.String(), "\n")
		for i, w := range strings.Split(string(want), "\n") {
			if i >= len(got) || got[i] != w {
				t.Fatalf("documents differ from %s at line %d:\n got %s\nwant %s", path, i+1, at(got, i), w)
			}
		}
		t.Fatalf("documents differ from %s: %d lines, want fewer", path, len(got))
	}
	for i, line := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		kind, rest, _ := strings.Cut(line, " ")
		_, doc, _ := strings.Cut(rest, " ")
		var v any
		switch kind {
		case "summary":
			v = new(sampling.Summary)
		case "hurst":
			v = new(sampling.HurstSummary)
		case "comparison":
			v = new(sampling.Comparison)
		default:
			t.Fatalf("line %d: unknown kind %q", i+1, kind)
		}
		if err := json.Unmarshal([]byte(doc), v); err != nil {
			t.Fatalf("line %d: decode: %v", i+1, err)
		}
		again, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("line %d: re-encode: %v", i+1, err)
		}
		if string(again) != doc {
			t.Errorf("line %d: decode and encode changed the document:\n got %s\nwant %s", i+1, again, doc)
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end)"
}
