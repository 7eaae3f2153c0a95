// Command perfbench is the serving benchmark of the sampled daemon.
//
// One run sets up several fresh sampled daemons in turn. Each is booted
// with fixed flags, given the workload's streams or groups and a fixed
// warm-up, then driven through one-second timed sub-windows over at
// most two persistent HTTP connections from at most two goroutines.
// Afterwards every stream is detached and checked against an in-process
// oracle, and the daemon is stopped before the next one boots. The
// figures are medians over all sub-windows of all daemons, which keeps
// them steady on a shared machine.
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// then replays the last daemon's exact tick sequence in process through
// each layer's exported functions and reports the per-layer ladder,
// whose rungs plus the http.residual_* remainder add up to the daemon's
// measured CPU time.
//
// Every metric is printed by name with its unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}
//
// Usage, from the repository root (run.sh builds the driver and the
// daemon from source first):
//
//	bash _perfbench/run.sh --workload groups-estimator --seed 1 --seconds 30 --trace 0
//	bash _perfbench/run.sh --smoke
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// A workload is one traffic mix against a fresh daemon.
type workload interface {
	// setup creates the workload's streams or groups, prefills them
	// and runs a fixed warm-up: everything before the first timed
	// operation.
	setup(cs [2]*conn) error
	// measure drives one timed window of length d.
	measure(cs [2]*conn, d time.Duration) (*window, error)
	// collect detaches every stream or group and keeps its state blob.
	collect(cs [2]*conn) error
	// check replays the exact tick sequence into never-moved
	// in-process engines and compares each with its detached state;
	// skew is added to the first stream's expected kept count (the
	// self-test's deliberately wrong oracle).
	check(skew int) (checked, mismatched int, err error)
	// ladder replays the tick sequence layer by layer in process.
	ladder(w *window) (*ladder, error)
}

var workloads = map[string]func(*traffic) workload{
	"streams-session":  newStreamsSession,
	"groups-estimator": newGroupsEstimator,
	"handoff":          newHandoff,
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"streams-session", "groups-estimator", "handoff"}

// window is what one timed window observed.
type window struct {
	elapsed   time.Duration
	cpu       time.Duration // daemon CPU time across the window
	ticks     int64         // ticks acknowledged by the daemon
	ops       int64         // ingest requests (handoff: move steps)
	ingest    []float64     // round-trip time of each ingest request, ms
	snapshots []float64     // open-loop snapshot latency from due time, ms
	moves     []float64     // DELETE state + PUT state, ms
	late      []float64     // how late the driver sent, ms
	encode    time.Duration
	encTicks  int64
	attempted int64
	failed    int64
	end       time.Time
}

// merge folds another window into w; elapsed and cpu add up, so a
// merge of consecutive windows is one long window.
func (w *window) merge(o *window) {
	w.elapsed += o.elapsed
	w.cpu += o.cpu
	w.ticks += o.ticks
	w.ops += o.ops
	w.ingest = append(w.ingest, o.ingest...)
	w.snapshots = append(w.snapshots, o.snapshots...)
	w.moves = append(w.moves, o.moves...)
	w.late = append(w.late, o.late...)
	w.encode += o.encode
	w.encTicks += o.encTicks
	w.attempted += o.attempted
	w.failed += o.failed
	if o.end.After(w.end) {
		w.end = o.end
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricName struct{ name, unit string }

// endToEnd lists the JSON end-to-end metrics, in BENCHMARK.json order.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"ingest_ticks_per_s", "ticks/s"},
	{"ingest_p50_ms", "ms"},
	{"server_cpu_ns_per_tick", "ns"},
	{"peak_rss_mb", "MiB"},
}

// result is everything one run measured.
type result struct {
	attempted, failed int64
	e2e               map[string]metric // the JSON end-to-end set
	extra             map[string]metric // workload-specific figures, printed only
	layers            map[string]metric // the per-layer set; nil unless traced
}

// daemonsPerRun fresh daemons are set up and measured in turn per run:
// setup_s is their median, and a slow daemon moves no figure alone.
const daemonsPerRun = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64 // measured time, split evenly over the daemons
	trace    bool
	daemon   string
	setups   int // daemons per run; the smoke test uses one
	skew     int // added to the first stream's expected kept count
}

func main() {
	var o options
	var trace int
	var smoke bool
	flag.StringVar(&o.workload, "workload", "", "streams-session, groups-estimator or handoff")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same traffic, specs and schedule")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured time, split evenly over the daemons")
	flag.IntVar(&trace, "trace", 0, "1 replays the run layer by layer and reports the per-layer ladder")
	flag.StringVar(&o.daemon, "daemon", ".bench_build/sampled", "sampled binary to benchmark")
	flag.BoolVar(&smoke, "smoke", false, "run every workload briefly and check the report shape and the oracle")
	flag.Parse()
	o.trace = trace == 1
	o.setups = daemonsPerRun

	if smoke {
		if err := runSmoke(o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench smoke:", err)
			os.Exit(1)
		}
		fmt.Println("smoke: ok")
		return
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.e2e}
	if o.trace {
		rep.Metrics = res.layers
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// daemonRun is one daemon's share of a run.
type daemonRun struct {
	w          workload
	setup      float64   // seconds from exec to the first timed operation
	windows    []*window // one per sub-window
	rss        float64   // VmHWM after the last sub-window, MiB
	checked    int
	mismatched int
}

// runDaemon boots a fresh daemon, sets the workload up on it, measures
// subs sub-windows of length sub, detaches everything, stops the daemon
// and runs the oracle.
func runDaemon(o options, tr *traffic, cs [2]*conn, subs int, sub time.Duration) (*daemonRun, error) {
	start := time.Now()
	d, err := startDaemon(o.daemon, cs)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	r := &daemonRun{w: workloads[o.workload](tr)}
	if err := r.w.setup(cs); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.setup = time.Since(start).Seconds()
	for k := 0; k < subs; k++ {
		win, err := measure(d, r.w, cs, sub)
		if err != nil {
			return nil, err
		}
		r.windows = append(r.windows, win)
	}
	if r.rss, err = d.peakRSS(); err != nil {
		return nil, err
	}
	if err := r.w.collect(cs); err != nil {
		return nil, err
	}
	// The oracle replays in process; stop the daemon first so the two
	// do not compete for the CPUs.
	d.stop()
	if r.checked, r.mismatched, err = r.w.check(o.skew); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return r, nil
}

// run performs one benchmark run; the human-readable table goes to out.
func run(o options, out io.Writer) (*result, error) {
	if _, ok := workloads[o.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (streams-session, groups-estimator or handoff)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if _, err := os.Stat(o.daemon); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	tr, err := newTraffic(o.seed)
	if err != nil {
		return nil, err
	}
	cs := [2]*conn{newConn(), newConn()}
	perDaemon := o.seconds / float64(o.setups)
	subs := max(1, int(math.Round(perDaemon)))
	sub := time.Duration(perDaemon / float64(subs) * float64(time.Second))

	var runs []*daemonRun
	for i := 0; i < o.setups; i++ {
		r, err := runDaemon(o, tr, cs, subs, sub)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return summarize(o, runs, out)
}

// summarize turns the daemons' sub-windows into the run's figures:
// each end-to-end metric is the median over all sub-windows (setup_s
// and peak_rss_mb over the daemons), and the pooled window feeds the
// workload-specific figures and the ladder.
func summarize(o options, runs []*daemonRun, out io.Writer) (*result, error) {
	var setups, rss, tput, cpuTick, p50, p95, p99 []float64
	all := &window{}
	res := &result{}
	checked, mismatched := 0, 0
	for _, r := range runs {
		setups = append(setups, r.setup)
		rss = append(rss, r.rss)
		checked += r.checked
		mismatched += r.mismatched
		for _, w := range r.windows {
			tput = append(tput, float64(w.ticks)/w.elapsed.Seconds())
			cpuTick = append(cpuTick, float64(w.cpu.Nanoseconds())/float64(w.ticks))
			p50 = append(p50, quantile(w.ingest, 0.5))
			p95 = append(p95, quantile(w.ingest, 0.95))
			p99 = append(p99, quantile(w.ingest, 0.99))
			all.merge(w)
		}
	}
	res.attempted = all.attempted + int64(checked)
	res.failed = all.failed + int64(mismatched)
	res.e2e = map[string]metric{
		"setup_s":                {median(setups), "s"},
		"ingest_ticks_per_s":     {median(tput), "ticks/s"},
		"ingest_p50_ms":          {median(p50), "ms"},
		"server_cpu_ns_per_tick": {median(cpuTick), "ns"},
		"peak_rss_mb":            {median(rss), "MiB"},
	}
	subs := len(tput)
	notes := map[string]string{
		"setup_s":                fmt.Sprintf("median of %d daemons", len(runs)),
		"ingest_ticks_per_s":     fmt.Sprintf("median of %d sub-windows, %d ticks", subs, all.ticks),
		"ingest_p50_ms":          fmt.Sprintf("median of %d sub-windows, %d requests", subs, len(all.ingest)),
		"server_cpu_ns_per_tick": fmt.Sprintf("median of %d sub-windows", subs),
		"peak_rss_mb":            fmt.Sprintf("median of %d daemons", len(runs)),
	}
	fmt.Fprintf(out, "workload %s  seed %d  measured %.2fs on %d daemons\n", o.workload, o.seed, all.elapsed.Seconds(), len(runs))
	for _, m := range endToEnd {
		printMetric(out, m.name, res.e2e[m.name], notes[m.name])
	}

	// The workload-specific figures, over the pooled window, and the
	// ingest tail: printed, but not part of the JSON set, which must
	// carry the same metrics on every workload and only ones that repeat
	// from run to run. On a shared two-CPU machine the p95 and p99 of
	// one-second sub-windows spread up to 0.2-0.3 of their median across
	// seeds, against under 0.15 for the median.
	tail := fmt.Sprintf("median of %d sub-windows, %d requests", subs, len(all.ingest))
	res.extra = map[string]metric{
		"error_rate":    {float64(res.failed) / float64(res.attempted), "ratio"},
		"ingest_p95_ms": {median(p95), "ms"},
		"ingest_p99_ms": {median(p99), "ms"},
	}
	notes = map[string]string{
		"error_rate": fmt.Sprintf("%d of %d operations failed, %d of %d oracle checks mismatched",
			all.failed, all.attempted, mismatched, checked),
		"ingest_p95_ms": tail,
		"ingest_p99_ms": tail,
	}
	if n := len(all.snapshots); n > 0 {
		res.extra["snapshot_p50_ms"] = metric{quantile(all.snapshots, 0.5), "ms"}
		res.extra["snapshot_p99_ms"] = metric{quantile(all.snapshots, 0.99), "ms"}
		notes["snapshot_p50_ms"] = fmt.Sprintf("n=%d", n)
		notes["snapshot_p99_ms"] = notes["snapshot_p50_ms"]
	}
	if n := len(all.moves); n > 0 {
		res.extra["moves_per_s"] = metric{float64(n) / all.elapsed.Seconds(), "1/s"}
		res.extra["move_p50_ms"] = metric{quantile(all.moves, 0.5), "ms"}
		res.extra["move_p99_ms"] = metric{quantile(all.moves, 0.99), "ms"}
		res.extra["server_cpu_us_per_move"] = metric{float64(all.cpu.Nanoseconds()) / float64(n) / 1e3, "us"}
		for _, k := range []string{"moves_per_s", "move_p50_ms", "move_p99_ms", "server_cpu_us_per_move"} {
			notes[k] = fmt.Sprintf("n=%d", n)
		}
	}
	for _, k := range sortedKeys(res.extra) {
		printMetric(out, k, res.extra[k], notes[k])
	}
	if !o.trace {
		return res, nil
	}

	l, err := runs[len(runs)-1].w.ladder(all)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	l.reconcile(all, res.e2e["server_cpu_ns_per_tick"].Value)
	l.print(out)
	if res.layers, err = l.metrics(); err != nil {
		return nil, err
	}
	return res, nil
}

// measure runs one timed window and reads the daemon's CPU time across
// it.
func measure(d *daemon, w workload, cs [2]*conn, dur time.Duration) (*window, error) {
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	win, err := w.measure(cs, dur)
	if err != nil {
		return nil, err
	}
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	if win.ticks == 0 || len(win.ingest) == 0 {
		return nil, errors.New("a timed window acknowledged no ticks")
	}
	win.cpu = cpu1 - cpu0
	return win, nil
}

func printMetric(out io.Writer, name string, m metric, note string) {
	fmt.Fprintf(out, "  %-36s %14.6g %-8s %s\n", name, m.Value, m.Unit, note)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// onBoth runs f once per connection, each on its own goroutine, and
// returns once both have finished.
func onBoth(cs [2]*conn, f func(c *conn, half int) error) error {
	errs := make(chan error, 2)
	for i, c := range cs {
		go func() { errs <- f(c, i) }()
	}
	return errors.Join(<-errs, <-errs)
}
