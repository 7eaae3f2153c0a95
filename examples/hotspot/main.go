// Hotspot detection: feed a synthesized OD-flow packet trace with an
// injected DoS-like burst through live sampling engines, and show a
// threshold alarm over the systematic engine's kept samples spotting
// the burst — the short-term monitoring use case the paper's
// introduction motivates. The binned trace arrives one second at a
// time through OfferBatch while a watcher goroutine snapshots the BSS
// engine mid-stream: the engines are live monitors, not batch jobs.
//
//	go run ./examples/hotspot
package main

import (
	"fmt"
	"log"
	"math"
	"sort"
	"sync"

	"repro/internal/dist"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/sampling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hotspot: ")

	// Background traffic: 50 OD pairs for 120 seconds.
	// Constant per-burst rates keep the background tame so the alarm's
	// false-positive rate stays near zero for the demo.
	cfg := traffic.SynthConfig{
		Pairs: 50, Duration: 120, AlphaOn: 1.6,
		MeanOn: 0.5, MeanOff: 20, MeanRate: 2e5,
	}
	pkts, err := traffic.SynthesizeTrace(cfg, dist.NewRand(7))
	if err != nil {
		log.Fatal(err)
	}
	// Inject a hot spot: one pair floods for 5 seconds starting at t=60.
	const burstStart, burstEnd = 60.0, 65.0
	for t := burstStart; t < burstEnd; t += 0.0005 {
		pkts = append(pkts, traffic.Packet{Time: t, Size: 1500}) // full-size flood packets
	}
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].Time < pkts[j].Time })

	const granularity = 0.05 // 50 ms bins
	f, err := traffic.BinBytes(pkts, granularity, cfg.Duration)
	if err != nil {
		log.Fatal(err)
	}
	baseline := stats.Mean(f)
	fmt.Printf("trace: %d packets, %d bins, mean rate %.3g bytes/s\n", len(pkts), len(f), baseline)

	// Two engines judge the same bins: systematic sampling of every 4th
	// bin, and BSS at the same base rate with extra probes in bursts.
	const interval = 4
	sys, err := sampling.New(sampling.MustParse(fmt.Sprintf("systematic:interval=%d", interval)))
	if err != nil {
		log.Fatal(err)
	}
	bss, err := sampling.New(sampling.MustParse(fmt.Sprintf("bss:interval=%d,L=2,eps=2.5", interval)))
	if err != nil {
		log.Fatal(err)
	}

	// Live observation: the watcher snapshots the BSS engine while the
	// bins flow. Snapshot never finalizes the engine, so watching
	// changes nothing downstream.
	progress := make(chan struct{}, 1)
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		seen := 0
		for range progress {
			s := bss.Snapshot()
			if s.Seen >= seen+600 { // roughly every 30 s of trace time
				seen = s.Seen
				fmt.Printf("live: t~%4.0fs  bss kept %4d of %4d ticks, running mean %.3g\n",
					float64(s.Seen)*granularity, s.Kept, s.Seen, s.Mean)
			}
		}
	}()

	// The alarm fires when the mean of the last 5 systematic samples
	// exceeds 3x the long-run mean. Systematic sampling keeps bin i
	// exactly when i%interval == 0, and each batch is a whole number of
	// intervals, so a batch's kept samples are its bins 0, 4, 8, ...
	// The engine's final count and mean check that below.
	const (
		batchBins = 20 // one second of bins per OfferBatch
		window    = 5
	)
	level := 3 * baseline
	var (
		recent  []float64 // the last window kept values
		alarms  []int     // bins where the alarm fired
		keptSum float64
		keptN   int
	)
	for off := 0; off < len(f); off += batchBins {
		batch := f[off:min(off+batchBins, len(f))]
		bss.OfferBatch(batch)
		sys.OfferBatch(batch)
		for j := 0; j < len(batch); j += interval {
			keptSum += batch[j]
			keptN++
			recent = append(recent, batch[j])
			if len(recent) > window {
				recent = recent[1:]
			}
			if len(recent) == window && stats.Mean(recent) > level {
				alarms = append(alarms, off+j)
			}
		}
		progress <- struct{}{} // buffered: ingest runs up to a batch ahead
	}
	close(progress)
	watch.Wait()

	fmt.Printf("\n%-12s  %8s  %10s  %10s\n", "engine", "kept", "mean", "qualified")
	for _, e := range []struct {
		name string
		eng  *sampling.Engine
	}{{"systematic", sys}, {"bss", bss}} {
		if _, err := e.eng.Finish(); err != nil {
			log.Fatal(err)
		}
		s := e.eng.Snapshot()
		fmt.Printf("%-12s  %8d  %10.3g  %10d\n", e.name, s.Kept, s.Mean, s.Qualified)
	}
	if s := sys.Snapshot(); s.Kept != keptN || math.Abs(s.Mean-keptSum/float64(keptN)) > 1e-9*s.Mean {
		log.Fatalf("the alarm read %d bins (mean %.6g), not the systematic engine's %d (mean %.6g)",
			keptN, keptSum/float64(keptN), s.Kept, s.Mean)
	}

	// An alarm counts for the burst if it fires while the burst is
	// still inside the rolling window.
	var hits []float64
	for _, a := range alarms {
		if t := float64(a) * granularity; t >= burstStart && t < burstEnd+window*interval*granularity {
			hits = append(hits, t)
		}
	}
	if len(hits) == 0 {
		log.Fatalf("the alarm missed the injected hot spot (%d alarms, none in t=%g..%gs)", len(alarms), burstStart, burstEnd)
	}
	fmt.Printf("\nhot spot injected at t=%g..%gs; alarm fired %d times between t=%.1fs and t=%.1fs (%d alarms in all)\n",
		burstStart, burstEnd, len(hits), hits[0], hits[len(hits)-1], len(alarms))
}
