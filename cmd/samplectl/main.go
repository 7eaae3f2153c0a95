// Command samplectl runs a sampling technique over a stored rate series
// and reports the estimated mean, the bias eta against the true series
// mean, the overhead and the efficiency — the paper's evaluation metrics
// for a single run.
//
// The sampler is built through the public sampling API: either from the
// -technique/-rate/... flags (which are assembled into a spec string) or
// directly from a -spec string, the same syntax the sampled daemon
// accepts.
// With -snapshots N, a live summary (kept/seen, running mean, 95% CI) is
// printed to stderr every N ticks while the run is in flight —
// the engine's non-destructive Snapshot in action.
//
// Examples:
//
//	samplectl -technique systematic -rate 1e-3 series.bin
//	samplectl -technique bss -rate 1e-3 -L 10 -eps 1.0 series.bin
//	samplectl -technique bss -rate 1e-3 -auto -alpha 1.5 -cs 0.02 series.bin
//	samplectl -spec "bss:rate=1e-3,L=10,eps=1.0" series.bin
//	samplectl -spec "bss:rate=1e-3,L=10,eps=1.0" -snapshots 100000 series.bin
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/sampling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "samplectl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("samplectl", flag.ContinueOnError)
	var (
		technique = fs.String("technique", "systematic", "one of: "+strings.Join(sampling.Techniques(), " | "))
		spec      = fs.String("spec", "", `full sampler spec, e.g. "bss:rate=1e-3,L=10,eps=1.0" (overrides the other sampler flags)`)
		rate      = fs.Float64("rate", 1e-3, "sampling rate (base samples per tick)")
		seed      = fs.Uint64("seed", 1, "random seed for the randomized techniques")
		offset    = fs.Int("offset", 0, "systematic/BSS starting offset")
		l         = fs.Int("L", 10, "BSS extra samples per triggered interval")
		eps       = fs.Float64("eps", 1.0, "BSS threshold multiplier")
		auto      = fs.Bool("auto", false, "BSS: derive L from the rate via Eq. (35)/(23)")
		alpha     = fs.Float64("alpha", 1.5, "traffic tail index for -auto")
		cs        = fs.Float64("cs", 0.02, "Cs constant of the eta(r) law for -auto")
		watch     = fs.Int("snapshots", 0, "print a live engine snapshot to stderr every N ticks (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: samplectl [flags] <series-file>")
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
	if *rate <= 0 || *rate > 1 {
		return fmt.Errorf("rate %g outside (0,1]", *rate)
	}
	interval, err := sampling.IntervalForRate(*rate)
	if err != nil {
		return err
	}
	realMean := stats.Mean(f)

	samplerSpec := *spec
	if samplerSpec == "" {
		switch *technique {
		case "systematic":
			samplerSpec = fmt.Sprintf("systematic:interval=%d,offset=%d", interval, *offset%interval)
		case "stratified":
			samplerSpec = fmt.Sprintf("stratified:interval=%d,seed=%d", interval, *seed)
		case "simple", "simple-random":
			samplerSpec = fmt.Sprintf("%s:rate=%g,seed=%d", *technique, *rate, *seed)
		case "bernoulli":
			samplerSpec = fmt.Sprintf("bernoulli:rate=%g,seed=%d", *rate, *seed)
		case "bss":
			bssL := *l
			if *auto {
				design, derr := sampling.NewBSSDesign(*alpha)
				if derr != nil {
					return derr
				}
				autoL, eta, derr := design.DesignForRate(*rate, *eps, *cs, 100)
				if derr != nil {
					return derr
				}
				bssL = autoL
				fmt.Printf("auto design: eta(r)=%.3f -> L=%d (eps=%.2f)\n", eta, autoL, *eps)
			}
			samplerSpec = fmt.Sprintf("bss:interval=%d,offset=%d,L=%d,eps=%g", interval, *offset%interval, bssL, *eps)
		default:
			// Every technique in the fixed table has a case above.
			return fmt.Errorf("unknown technique %q (one of %s)",
				*technique, strings.Join(sampling.Techniques(), ", "))
		}
	}
	parsed, err := sampling.Parse(samplerSpec)
	if err != nil {
		return err
	}
	eng, err := sampling.New(parsed)
	if err != nil {
		return err
	}
	samples, err := sampleWatched(eng, f, *watch)
	if err != nil {
		return err
	}
	sampledMean := sampling.MeanOf(samples)
	eta := sampling.Eta(sampledMean, realMean)
	base, qualified := sampling.CountKinds(samples)
	fmt.Printf("technique:     %s\n", eng.Technique())
	fmt.Printf("spec:          %s\n", samplerSpec)
	fmt.Printf("series:        %d ticks, real mean %.6g\n", len(f), realMean)
	fmt.Printf("samples:       %d (base %d, qualified %d)\n", len(samples), base, qualified)
	fmt.Printf("sampled mean:  %.6g\n", sampledMean)
	fmt.Printf("eta:           %.4f\n", eta)
	if qualified > 0 {
		fmt.Printf("overhead:      %.4f\n", sampling.Overhead(samples))
	}
	fmt.Printf("efficiency:    %.4f\n", sampling.Efficiency(eta, len(samples)))
	return nil
}

// sampleWatched runs the engine over the whole series. With every <= 0
// it is the plain batch run; otherwise it offers ticks one by one and
// prints a live snapshot to stderr every N ticks, demonstrating
// mid-stream observation without disturbing the result.
func sampleWatched(eng *sampling.Engine, f []float64, every int) ([]sampling.Sample, error) {
	if every <= 0 {
		return eng.Sample(f)
	}
	samples := make([]sampling.Sample, 0, 64)
	for i, v := range f {
		if s, ok := eng.Offer(v); ok {
			samples = append(samples, s)
		}
		if (i+1)%every == 0 {
			sum := eng.Snapshot()
			fmt.Fprintf(os.Stderr, "samplectl: tick %d: kept %d/%d, mean %.6g, 95%% CI [%.6g, %.6g]\n",
				i+1, sum.Kept, sum.Seen, sum.Mean, sum.CILow, sum.CIHigh)
		}
	}
	tail, err := eng.Finish()
	if err != nil {
		return nil, err
	}
	return append(samples, tail...), nil
}
