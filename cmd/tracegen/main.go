// Command tracegen generates synthetic self-similar traffic series — a
// superposed ON/OFF aggregate or an fGn series — written in the
// repository's binary series format, which hurst and samplectl read.
//
// Examples:
//
//	tracegen -kind onoff -ticks 1048576 -hurst 0.85 -out onoff.series
//	tracegen -kind fgn -ticks 65536 -hurst 0.8 -mean 10 -sdev 2 -out fgn.series
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dist"
	"repro/internal/lrd"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		kind    = fs.String("kind", "onoff", "series kind: onoff | fgn")
		out     = fs.String("out", "", "output file (required)")
		seed    = fs.Uint64("seed", 1, "random seed")
		ticks   = fs.Int("ticks", 1<<18, "series length in ticks")
		hurst   = fs.Float64("hurst", 0.8, "target Hurst parameter")
		mean    = fs.Float64("mean", 0, "fgn mean (fgn only)")
		sdev    = fs.Float64("sdev", 1, "fgn standard deviation (fgn only)")
		sources = fs.Int("sources", 12, "ON/OFF sources (onoff only)")
		rateA   = fs.Float64("ratealpha", 1.5, "per-burst rate tail index, 0 = constant (onoff only)")
		gran    = fs.Float64("granularity", 1, "seconds per bin recorded in the series file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("missing -out")
	}
	rng := dist.NewRand(*seed)
	file, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer file.Close()

	switch *kind {
	case "onoff":
		alpha := lrd.AlphaFromH(*hurst)
		cfg := traffic.OnOffConfig{
			Sources: *sources, AlphaOn: alpha, AlphaOff: alpha,
			MeanOn: 10, MeanOff: 90, Rate: 1, RateAlpha: *rateA, Ticks: *ticks,
		}
		f, err := traffic.GenerateOnOff(cfg, rng)
		if err != nil {
			return err
		}
		if err := trace.WriteSeries(file, *gran, f); err != nil {
			return err
		}
		fmt.Printf("wrote %d-tick ON/OFF series (design H=%.2f) to %s\n", len(f), cfg.Hurst(), *out)
	case "fgn":
		gen, err := lrd.NewFGN(*hurst, *ticks, *mean, *sdev)
		if err != nil {
			return err
		}
		f := gen.Generate(rng)
		if err := trace.WriteSeries(file, *gran, f); err != nil {
			return err
		}
		fmt.Printf("wrote %d-tick fGn series (H=%.2f) to %s\n", len(f), *hurst, *out)
	default:
		return fmt.Errorf("unknown kind %q (want onoff or fgn)", *kind)
	}
	return nil
}
