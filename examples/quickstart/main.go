// Quickstart: generate a self-similar traffic trace, run the three
// classic techniques side by side in one comparison group (the v2
// public API: sampling.NewGroup fans the same ticks to every member and
// scores each against the unsampled input), then add BSS with its
// designed parameters — the paper's core story in ~80 lines. See
// examples/compare for the full five-technique comparison with live
// Hurst drift.
//
//	go run ./examples/quickstart
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
	log.SetPrefix("quickstart: ")

	// 1. Generate self-similar traffic: superposed heavy-tailed ON/OFF
	// sources with heterogeneous burst rates (H ~ 0.85, Pareto marginal).
	cfg := traffic.OnOffConfig{
		Sources: 12, AlphaOn: 1.3, AlphaOff: 1.5,
		MeanOn: 5, MeanOff: 300, Rate: 1, RateAlpha: 1.5,
		Ticks: 1 << 17,
	}
	f, err := traffic.GenerateOnOff(cfg, dist.NewRand(20050608))
	if err != nil {
		log.Fatal(err)
	}
	realMean := stats.Mean(f)
	fmt.Printf("trace: %d ticks, real mean %.4f, design H %.2f\n", len(f), realMean, cfg.Hurst())

	// 2. Confirm it is long-range dependent.
	if est, err := lrd.HurstWavelet(f, lrd.WaveletOptions{JMin: 4}); err == nil {
		fmt.Printf("wavelet Hurst estimate: %.3f (H > 0.5 means LRD)\n", est.H)
	}

	// 3. Sample at rate 1e-3 with every classic technique — side by side
	// in one comparison group, so all three judge the identical stream
	// and the fidelity scores come straight off the snapshot (the v2
	// surface; seeds ride in the specs because options apply group-wide).
	const interval = 1000
	n := len(f) / interval
	group, err := sampling.NewGroup([]sampling.Spec{
		sampling.MustParse(fmt.Sprintf("systematic:interval=%d", interval)),
		sampling.MustParse(fmt.Sprintf("stratified:interval=%d,seed=1", interval)),
		sampling.MustParse(fmt.Sprintf("simple:n=%d,seed=2", n)),
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := group.Sample(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-14s  %10s  %8s  %8s\n", "technique", "mean", "eta", "samples")
	for _, mem := range group.Snapshot().Members {
		fmt.Printf("%-14s  %10.4f  %8.4f  %8d\n",
			mem.Summary.Technique, mem.Summary.Mean, mem.Fidelity.MeanBias, mem.Summary.Kept)
	}

	// 4. BSS: design L for the typical bias via the paper's Eq. (23), then
	// sample with the adaptive threshold (epsilon = 1). The typical bias is
	// the median over systematic instances at spread offsets.
	design, err := sampling.NewBSSDesign(1.5) // marginal tail index
	if err != nil {
		log.Fatal(err)
	}
	st, err := sampling.RunInstances(f, realMean, 21, sampling.SystematicInstances(interval))
	if err != nil {
		log.Fatal(err)
	}
	medMean, err := stats.Median(st.Means)
	if err != nil {
		log.Fatal(err)
	}
	eta := sampling.Eta(medMean, realMean)
	if eta < 0.01 {
		eta = 0.01
	}
	lf, err := design.LUnbiased(1.0, eta)
	if err != nil {
		log.Fatal(err)
	}
	l := int(lf + 0.5)
	if l < 1 {
		l = 1
	}
	bss, err := sampling.New(sampling.MustParse(fmt.Sprintf("bss:interval=%d,L=%d,eps=1.0", interval, l)))
	if err != nil {
		log.Fatal(err)
	}
	samples, err := bss.Sample(f)
	if err != nil {
		log.Fatal(err)
	}
	m := sampling.MeanOf(samples)
	fmt.Printf("%-14s  %10.4f  %8.4f  %8d   (L=%d, overhead %.3f)\n",
		"bss", m, sampling.Eta(m, realMean), len(samples), l, sampling.Overhead(samples))

	// The paper's online rule needs no instance runs: Eq. (35) estimates
	// the typical bias from the rate alone (cs = 0.02), then Eq. (23)
	// gives L as above.
	onlineL, onlineEta, err := design.DesignForRate(1.0/interval, 1.0, 0.02, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("online design (Eq. 35): eta(r)=%.3f -> L=%d\n", onlineEta, onlineL)
	fmt.Println("\nBSS recovers the mass that plain sampling misses in the bursts.")
}
