// Package experiments reproduces every evaluation artefact of the paper —
// Figures 2 through 22 — as typed, renderable experiment results. Each
// FigNN function runs the corresponding workload at a chosen Scale and
// returns the same rows/series the paper plots; cmd/figures regenerates
// them at full scale and bench_test.go exercises each one.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Scale selects the experiment size.
type Scale int

const (
	// ScaleSmall runs quickly (tests, benchmarks) on reduced traces.
	ScaleSmall Scale = iota
	// ScaleFull reproduces the paper's trace sizes and rate ranges.
	ScaleFull
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == ScaleFull {
		return "full"
	}
	return "small"
}

// Renderer is any experiment result that can print itself as the rows of
// the corresponding paper figure.
type Renderer interface {
	Render() string
}

// Runner executes one figure's experiment.
type Runner func(Scale) (Renderer, error)

// registry maps figure identifiers ("fig02" ... "fig22") to their
// runners. It is built once at package init and never mutated, so
// Lookup reads it without a lock.
var registry = map[string]Runner{
	"fig02": func(s Scale) (Renderer, error) { return Fig02(s) },
	"fig03": func(s Scale) (Renderer, error) { return Fig03(s) },
	"fig04": func(s Scale) (Renderer, error) { return Fig04(s) },
	"fig05": func(s Scale) (Renderer, error) { return Fig05(s) },
	"fig06": func(s Scale) (Renderer, error) { return Fig06(s) },
	"fig07": func(s Scale) (Renderer, error) { return Fig07(s) },
	"fig08": func(s Scale) (Renderer, error) { return Fig08(s) },
	"fig09": func(s Scale) (Renderer, error) { return Fig09(s) },
	"fig10": func(s Scale) (Renderer, error) { return Fig10(s) },
	"fig11": func(s Scale) (Renderer, error) { return Fig11(s) },
	"fig12": func(s Scale) (Renderer, error) { return Fig12(s) },
	"fig13": func(s Scale) (Renderer, error) { return Fig13(s) },
	"fig14": func(s Scale) (Renderer, error) { return Fig14(s) },
	"fig15": func(s Scale) (Renderer, error) { return Fig15(s) },
	"fig16": func(s Scale) (Renderer, error) { return Fig16(s) },
	"fig17": func(s Scale) (Renderer, error) { return Fig17(s) },
	"fig18": func(s Scale) (Renderer, error) { return Fig18(s) },
	"fig19": func(s Scale) (Renderer, error) { return Fig19(s) },
	"fig20": func(s Scale) (Renderer, error) { return Fig20(s) },
	"fig21": func(s Scale) (Renderer, error) { return Fig21(s) },
	"fig22": func(s Scale) (Renderer, error) { return Fig22(s) },
}

// figureIDs is the sorted key list, computed once.
var figureIDs = func() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}()

// Lookup returns the runner for a figure identifier.
func Lookup(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// Names returns the sorted figure identifiers.
func Names() []string { return append([]string(nil), figureIDs...) }

// table is a small text-table builder used by every Render method.
type table struct {
	title  string
	header []string
	rows   [][]string
}

func newTable(title string, header ...string) *table {
	return &table{title: title, header: header}
}

func (t *table) addRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	b.WriteString(t.title)
	b.WriteByte('\n')
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// fnum renders a float compactly for tables.
func fnum(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e5 || v < 1e-3 && v > -1e-3 || v <= -1e5:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
