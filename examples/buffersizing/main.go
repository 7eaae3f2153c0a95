// Buffer sizing: the downstream consumer of everything the paper builds.
// Estimate (mean, variance, Hurst) of a link from *sampled* measurements,
// dimension a router buffer with Norros' fBm formula, and compare against
// dimensioning from the full trace — showing why a sampling technique
// must preserve both the mean and the Hurst parameter.
//
//	go run ./examples/buffersizing
package main

import (
	"fmt"
	"log"

	"repro/internal/dist"
	"repro/internal/lrd"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/sampling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("buffersizing: ")

	// The link's true traffic: LRD with H ~ 0.8.
	cfg := traffic.OnOffConfig{
		Sources: 32, AlphaOn: 1.4, AlphaOff: 1.4,
		MeanOn: 10, MeanOff: 30, Rate: 1, Ticks: 1 << 18,
	}
	f, err := traffic.GenerateOnOff(cfg, dist.NewRand(77))
	if err != nil {
		log.Fatal(err)
	}
	const (
		headroom = 1.15 // service rate = 1.15 x mean
		target   = 1e-4 // acceptable overflow probability
	)
	trueMean := stats.Mean(f)
	c := headroom * trueMean

	// Ground truth: model fitted on the full trace.
	hFull, err := lrd.HurstWavelet(f, lrd.WaveletOptions{JMin: 4})
	if err != nil {
		log.Fatal(err)
	}
	full, err := FitModel(f, clampH(hFull.H))
	if err != nil {
		log.Fatal(err)
	}
	bFull, err := full.BufferFor(c, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full trace:    mean %.3f, H %.3f -> buffer %.1f for P(overflow)=%g at c=%.3f\n",
		full.Mean, full.H, bFull, target, c)

	// The monitor's view: systematic sampling at rate 1e-2 (the sampled
	// process keeps H per Theorem 1; its mean may under-shoot).
	eng, err := sampling.New(sampling.MustParse("systematic:interval=100,offset=13"))
	if err != nil {
		log.Fatal(err)
	}
	samples, err := eng.Sample(f)
	if err != nil {
		log.Fatal(err)
	}
	g := sampling.SampledSeries(samples)
	hSampled, err := lrd.HurstWavelet(g, lrd.WaveletOptions{JMin: 3})
	if err != nil {
		log.Fatal(err)
	}
	sampled, err := FitModel(g, clampH(hSampled.H))
	if err != nil {
		log.Fatal(err)
	}
	bSampled, err := sampled.BufferFor(c, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled (1%%):  mean %.3f, H %.3f -> buffer %.1f\n", sampled.Mean, sampled.H, bSampled)

	// What a wrong H would do: dimension with H = 0.5 (short-range
	// assumption) and with the sampled H.
	srd := sampled
	srd.H = 0.55
	bWrong, err := srd.BufferFor(c, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("if H were .55: buffer %.1f  (under-provisioned %.0fx)\n", bWrong, bFull/bWrong)

	// Validate by simulation: run the real traffic through each buffer.
	// (Norros is asymptotic, so absolute losses sit above the design
	// target; what matters is how fast loss grows as the buffer shrinks.)
	for _, tc := range []struct {
		name string
		b    float64
	}{{"Norros/full", bFull}, {"Norros/sampled", bSampled}, {"short-range", bWrong}} {
		res, err := Simulate(f, c, tc.b)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("simulated with %-14s buffer %8.1f: loss fraction %.2e\n",
			tc.name, tc.b, res.LossFraction)
	}
	fmt.Println("\nPreserving H in the sampled process (Theorem 1) is what makes")
	fmt.Println("monitor-driven buffer dimensioning land near the full-trace answer.")
}

// clampH keeps estimator noise inside Norros' valid range.
func clampH(h float64) float64 {
	if h <= 0.51 {
		return 0.51
	}
	if h >= 0.99 {
		return 0.99
	}
	return h
}
