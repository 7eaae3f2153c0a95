package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
	"strings"
)

// runSmoke is the self-test. It runs every workload once, briefly and
// traced, and checks that every end-to-end, workload-specific and
// per-layer metric is printed with its unit, that the oracle passes and
// that the ladder reconciles. Then it runs once with a deliberately
// wrong oracle, which must show up in error_rate, and finally checks
// BENCHMARK.json, when the working directory has one, against the
// metric lists.
func runSmoke(o options, out io.Writer) error {
	o.seconds, o.setups, o.trace, o.skew = 1, 1, true, 0
	specific := map[string][]string{
		"streams-session":  {"error_rate", "ingest_p95_ms", "ingest_p99_ms"},
		"groups-estimator": {"error_rate", "ingest_p95_ms", "ingest_p99_ms", "snapshot_p50_ms", "snapshot_p99_ms"},
		"handoff":          {"error_rate", "ingest_p95_ms", "ingest_p99_ms", "moves_per_s", "move_p50_ms", "move_p99_ms", "server_cpu_us_per_move"},
	}
	for _, name := range workloadNames {
		o.workload = name
		var table bytes.Buffer
		res, err := run(o, &table)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out.Write(table.Bytes())
		if res.failed != 0 {
			return fmt.Errorf("%s: %d of %d operations or oracle checks failed", name, res.failed, res.attempted)
		}
		if err := checkSet(res.e2e, endToEnd, true, table.String()); err != nil {
			return fmt.Errorf("%s end-to-end: %w", name, err)
		}
		if err := checkSet(res.layers, perLayer(), false, table.String()); err != nil {
			return fmt.Errorf("%s per-layer: %w", name, err)
		}
		var want []metricName
		for _, k := range specific[name] {
			want = append(want, metricName{k, res.extra[k].Unit})
		}
		if err := checkSet(res.extra, want, false, table.String()); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		sum := res.layers["ladder.rungs_ns_per_tick"].Value + res.layers["http.residual_ns_per_tick"].Value
		server := res.e2e["server_cpu_ns_per_tick"].Value
		if math.Abs(sum-server) > 1e-9*server {
			return fmt.Errorf("%s: rungs plus residual %g != server CPU %g ns/tick", name, sum, server)
		}
	}

	o.workload, o.trace, o.skew = "streams-session", false, 1
	res, err := run(o, io.Discard)
	if err != nil {
		return fmt.Errorf("wrong oracle: %w", err)
	}
	if rate := res.extra["error_rate"].Value; rate <= 0 {
		return fmt.Errorf("the oracle did not catch a wrong expected kept count (error_rate %g)", rate)
	}
	fmt.Fprintf(out, "wrong expected kept count caught: error_rate %g\n", res.extra["error_rate"].Value)
	return checkBenchmarkJSON()
}

// checkSet reports a metric of want that is missing from got, carries
// another unit, is not finite (or, with positive, not above zero), or
// is absent from the printed table.
func checkSet(got map[string]metric, want []metricName, positive bool, table string) error {
	for _, w := range want {
		m, ok := got[w.name]
		switch {
		case !ok:
			return fmt.Errorf("%s not reported", w.name)
		case m.Unit != w.unit:
			return fmt.Errorf("%s reported in %q, want %q", w.name, m.Unit, w.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("%s is %v", w.name, m.Value)
		case positive && m.Value <= 0:
			return fmt.Errorf("%s is %v, want > 0", w.name, m.Value)
		case !strings.Contains(table, w.name):
			return fmt.Errorf("%s not printed", w.name)
		}
	}
	return nil
}

// checkBenchmarkJSON compares BENCHMARK.json's workloads and metric
// lists with the ones this program reports.
func checkBenchmarkJSON() error {
	data, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	theirs := func(l []entry) []string {
		var out []string
		for _, e := range l {
			out = append(out, strings.TrimSpace(e.Name+" "+e.Unit))
		}
		return out
	}
	ours := func(l []metricName) []string {
		var out []string
		for _, m := range l {
			out = append(out, m.name+" "+m.unit)
		}
		return out
	}
	switch {
	case !slices.Equal(theirs(b.Workloads), workloadNames):
		return fmt.Errorf("BENCHMARK.json workloads %v, want %v", theirs(b.Workloads), workloadNames)
	case !slices.Equal(theirs(b.EndToEnd), ours(endToEnd)):
		return fmt.Errorf("BENCHMARK.json end_to_end %v, want %v", theirs(b.EndToEnd), ours(endToEnd))
	case !slices.Equal(theirs(b.PerLayer), ours(perLayer())):
		return fmt.Errorf("BENCHMARK.json per_layer %v, want %v", theirs(b.PerLayer), ours(perLayer()))
	}
	return nil
}
