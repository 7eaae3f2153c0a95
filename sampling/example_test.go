package sampling_test

import (
	"fmt"

	"repro/sampling"
	"repro/sampling/estimate"
)

// exampleTrace is a deterministic series for the examples: a small
// linear-congruential generator, so the output blocks below are stable
// without depending on any package's RNG stream.
func exampleTrace(n int) []float64 {
	f := make([]float64, n)
	x := uint32(1)
	for i := range f {
		x = x*1664525 + 1013904223
		f[i] = float64(x%1000) / 1000
	}
	return f
}

// Parse turns the compact spec syntax into a typed Spec; String renders
// the canonical form (sorted keys), and failures are typed.
func ExampleParse() {
	spec, err := sampling.Parse("bss:rate=1e-3,L=10,eps=1.0")
	if err != nil {
		panic(err)
	}
	fmt.Println(spec.Technique)
	fmt.Println(spec.String())
	// Output:
	// bss
	// bss:L=10,eps=1.0,rate=1e-3
}

// A fresh engine consumes one stream; Sample runs it over a whole
// series and returns every kept sample with its index.
func ExampleNew() {
	eng, err := sampling.New(sampling.MustParse("systematic:interval=4,offset=1"))
	if err != nil {
		panic(err)
	}
	samples, err := eng.Sample([]float64{10, 11, 12, 13, 14, 15, 16, 17, 18})
	if err != nil {
		panic(err)
	}
	for _, s := range samples {
		fmt.Printf("kept index %d value %g\n", s.Index, s.Value)
	}
	fmt.Printf("snapshot kept %d of %d\n", eng.Snapshot().Kept, eng.Snapshot().Seen)
	// Output:
	// kept index 1 value 11
	// kept index 5 value 15
	// snapshot kept 2 of 9
}

// OfferBatch is the ingest hot path: one lock acquisition per batch,
// and the whole batch handed to the technique's skip-based kernel. Any
// batching keeps exactly the samples of a whole-series run.
func ExampleEngine_OfferBatch() {
	f := exampleTrace(10_000)
	batched, _ := sampling.New(sampling.MustParse("bernoulli:rate=0.01,seed=7"))
	whole, _ := sampling.New(sampling.MustParse("bernoulli:rate=0.01,seed=7"))

	var kept int
	for off := 0; off < len(f); off += 512 {
		end := min(off+512, len(f))
		k, err := batched.OfferBatch(f[off:end]) // ErrFinished once finished
		if err != nil {
			fmt.Println(err)
			return
		}
		kept += k
	}
	all, _ := whole.Sample(f)
	fmt.Printf("batched kept %d, whole series kept %d\n", kept, len(all))
	fmt.Println("same:", kept == len(all))
	// Output:
	// batched kept 99, whole series kept 99
	// same: true
}

// A Group fans one stream out to several techniques and scores what
// each one changed relative to the unsampled input.
func ExampleNewGroup() {
	group, err := sampling.NewGroup([]sampling.Spec{
		sampling.MustParse("systematic:interval=100"),
		sampling.MustParse("systematic:interval=50"),
	})
	if err != nil {
		panic(err)
	}
	group.OfferBatch(exampleTrace(100_000))
	cmp := group.Snapshot()
	fmt.Printf("input seen %d\n", cmp.Seen)
	for _, m := range cmp.Members {
		fmt.Printf("%s kept ratio %.3f\n", m.Summary.Spec, m.Fidelity.KeptRatio)
	}
	// Output:
	// input seen 100000
	// systematic:interval=100 kept ratio 0.010
	// systematic:interval=50 kept ratio 0.020
}

// WithEstimator attaches online Hurst estimators over both the input
// stream and the kept samples — the paper's preservation question as a
// live reading. Estimates stay undetermined (OK false, NaN values)
// until enough stream has arrived to regress.
func ExampleWithEstimator() {
	eng, err := sampling.New(sampling.MustParse("systematic:interval=10"),
		sampling.WithEstimator(estimate.AggVar))
	if err != nil {
		panic(err)
	}
	eng.OfferBatch(exampleTrace(1 << 16))
	hs := eng.Snapshot().Hurst
	fmt.Printf("method %s, input ticks %d resolved %t, kept ticks %d resolved %t\n",
		hs.Method, hs.Input.Ticks, hs.Input.OK, hs.Kept.Ticks, hs.Kept.OK)
	// Output:
	// method aggvar, input ticks 65536 resolved true, kept ticks 6554 resolved true
}
