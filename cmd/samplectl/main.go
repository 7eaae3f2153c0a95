// Command samplectl runs a sampling technique over a stored rate series
// and reports the estimated mean, the bias eta against the true series
// mean, the overhead and the efficiency — the paper's evaluation metrics
// for a single run.
//
// The sampler is named by a -spec string, the same syntax the sampled
// daemon accepts, and built through the public sampling API.
//
// Examples:
//
//	samplectl -spec "systematic:rate=1e-3" series.bin
//	samplectl -spec "bss:rate=1e-3,L=10,eps=1.0" series.bin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/sampling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "samplectl:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("samplectl", flag.ContinueOnError)
	specFlag := fs.String("spec", "", `sampler spec, e.g. "bss:rate=1e-3,L=10,eps=1.0" (required)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specFlag == "" || fs.NArg() != 1 {
		return fmt.Errorf("usage: samplectl -spec <spec> <series-file>")
	}
	spec, err := sampling.Parse(*specFlag)
	if err != nil {
		return err
	}
	eng, err := sampling.New(spec)
	if err != nil {
		return err
	}
	file, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer file.Close()
	_, f, err := trace.ReadSeries(file)
	if err != nil {
		return err
	}
	samples, err := eng.Sample(f)
	if err != nil {
		return err
	}
	realMean := stats.Mean(f)
	sampledMean := sampling.MeanOf(samples)
	eta := sampling.Eta(sampledMean, realMean)
	base, qualified := sampling.CountKinds(samples)
	fmt.Fprintf(w, "technique:     %s\n", eng.Technique())
	fmt.Fprintf(w, "spec:          %s\n", *specFlag)
	fmt.Fprintf(w, "series:        %d ticks, real mean %.6g\n", len(f), realMean)
	fmt.Fprintf(w, "samples:       %d (base %d, qualified %d)\n", len(samples), base, qualified)
	fmt.Fprintf(w, "sampled mean:  %.6g\n", sampledMean)
	fmt.Fprintf(w, "eta:           %.4f\n", eta)
	if qualified > 0 {
		fmt.Fprintf(w, "overhead:      %.4f\n", sampling.Overhead(samples))
	}
	fmt.Fprintf(w, "efficiency:    %.4f\n", sampling.Efficiency(eta, len(samples)))
	return nil
}
