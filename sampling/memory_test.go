package sampling

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/sampling/estimate"
)

// memoryTechniques are the five techniques at the specs the serving
// benchmark runs; simple is in fixed-size mode, the one a long-lived
// stream can use.
var memoryTechniques = []string{
	"systematic:interval=100",
	"stratified:interval=100,seed=5",
	"bernoulli:rate=0.01,seed=5",
	"simple:n=1000,seed=5",
	"bss:interval=100,L=5,eps=1.0",
}

// estimatorCeilings bound the live bytes an estimator pair (input and
// kept side) adds to one engine after 2^16 ticks, fed or restored.
// Fixed 48-level ladders cost ~7 KB (aggvar) and ~4 KB (wavelet) a
// pair, and rs held a second window-sized scratch ring (~64 KB more).
var estimatorCeilings = map[estimate.Method]int64{
	estimate.AggVar:  4 << 10,
	estimate.Wavelet: 2560,
	estimate.RS:      80 << 10,
}

// simpleCeiling bounds a simple:n=1000 engine without an estimator. A
// reservoir of 1000 two-column slots is 16 KB restored and 20 KB fed,
// where append's spare capacity from the fill phase stays; as []Sample
// it was 24 KB and 32 KB.
const simpleCeiling = 22 << 10

// liveBytesPerEngine builds count engines and returns the live heap
// bytes each holds: the heap difference across the builds, each side
// read after two forced collections (the second empties sync.Pool's
// victim cache, so pooled scratch does not count).
func liveBytesPerEngine(t *testing.T, count int, build func() *Engine) int64 {
	t.Helper()
	engines := make([]*Engine, count)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range engines {
		engines[i] = build()
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(engines)
	return (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(count)
}

// TestBytesPerStream measures the live heap one engine holds after
// 2^16 ticks, for every technique without an estimator and with each
// one, both fed in 8192-tick batches and restored from MarshalState,
// and pins the per-stream cost of the estimators and the
// fixed-size reservoir. It logs the table README quotes.
func TestBytesPerStream(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap accounting")
	}
	const engines, ticks = 128, 1 << 16
	sides := [2]string{"fed", "restored"}
	f := heavyTrace(ticks)
	feed := func(eng *Engine) *Engine {
		for off := 0; off < ticks; off += 8192 {
			eng.OfferBatch(f[off : off+8192])
		}
		return eng
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-30s %-9s %9s %9s\n", "technique", "estimator", "fed B", "restored B")
	for _, spec := range memoryTechniques {
		var base [2]int64
		for _, est := range []estimate.Method{"", estimate.AggVar, estimate.Wavelet, estimate.RS} {
			var opts []Option
			if est != "" {
				opts = append(opts, WithEstimator(est))
			}
			build := func() *Engine {
				eng, err := New(MustParse(spec), opts...)
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			blob, err := feed(build()).MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			fed := liveBytesPerEngine(t, engines, func() *Engine { return feed(build()) })
			restored := liveBytesPerEngine(t, engines, func() *Engine {
				eng, err := RestoreEngine(blob)
				if err != nil {
					t.Fatal(err)
				}
				return eng
			})
			name := string(est)
			if est == "" {
				name = "none"
				base = [2]int64{fed, restored}
			}
			fmt.Fprintf(&table, "%-30s %-9s %9d %9d\n", spec, name, fed, restored)
			if ceiling, ok := estimatorCeilings[est]; ok {
				for i, got := range [2]int64{fed - base[0], restored - base[1]} {
					if got > ceiling {
						t.Errorf("%s with %s (%s): estimators add %d bytes per stream, ceiling %d",
							spec, est, sides[i], got, ceiling)
					}
				}
			}
			if est == "" && strings.HasPrefix(spec, "simple:n=1000") {
				for i, got := range base {
					if got > simpleCeiling {
						t.Errorf("%s (%s): %d bytes per stream, ceiling %d",
							spec, sides[i], got, simpleCeiling)
					}
				}
			}
		}
	}
	t.Logf("live heap bytes per engine after %d ticks (%d engines):\n%s", ticks, engines, table.String())
}
