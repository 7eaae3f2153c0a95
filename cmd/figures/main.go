// Command figures regenerates the paper's evaluation artefacts
// (Figures 2-22). Without flags it runs every figure at full scale and
// prints the tables; -fig selects specific figures and -small switches
// to the reduced test scale. Up to GOMAXPROCS figures run at once.
//
// Figure tables go to stdout in figure-id order regardless of
// completion order, so the output is byte-identical between serial and
// parallel runs; per-figure timing goes to stderr.
//
// Examples:
//
//	figures                        # all figures, paper scale, parallel
//	GOMAXPROCS=1 figures           # the serial run (same stdout bytes)
//	figures -fig fig06             # one figure
//	figures -fig fig05,fig22 -small
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// figResult is one finished figure, handed from a worker to the in-order
// printer.
type figResult struct {
	rendered string
	elapsed  time.Duration
	err      error
}

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		figs  = fs.String("fig", "", "comma-separated figure ids (default: all); e.g. fig06,fig18")
		small = fs.Bool("small", false, "run at the reduced test scale instead of paper scale")
		list  = fs.Bool("list", false, "list available figure ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.Names() {
			fmt.Println(id)
		}
		return nil
	}
	scale := experiments.ScaleFull
	if *small {
		scale = experiments.ScaleSmall
	}
	ids := experiments.Names()
	if *figs != "" {
		ids = strings.Split(*figs, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
		}
	}
	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		runner, ok := experiments.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown figure %q (use -list)", id)
		}
		runners[i] = runner
	}
	// Worker pool: each figure runs independently under a semaphore of
	// GOMAXPROCS slots; the main goroutine commits results strictly in
	// figure order.
	results := make([]chan figResult, len(ids))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range ids {
		results[i] = make(chan figResult, 1)
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			r, err := runners[i](scale)
			res := figResult{elapsed: time.Since(start), err: err}
			if err == nil {
				res.rendered = r.Render()
			}
			results[i] <- res
		}(i)
	}
	for i, id := range ids {
		res := <-results[i]
		if res.err != nil {
			return fmt.Errorf("%s: %w", id, res.err)
		}
		fmt.Fprintf(os.Stderr, "figures: %s finished in %.1fs\n", id, res.elapsed.Seconds())
		fmt.Printf("=== %s (%s scale) ===\n%s\n", id, scale, res.rendered)
	}
	return nil
}
