package obs

import "testing"

// The instrument hot paths sit on the daemon's per-request and
// per-frame serving paths; these benchmarks are gated in CI against
// bench_baseline.json.

func BenchmarkObsCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.NewCounter("bench_total", "x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsObserve(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogramVec("bench_seconds", "x", DurationBuckets()).With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}
