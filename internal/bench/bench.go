// Package bench is the benchmark harness that regenerates every table and
// figure of the Romulus paper's evaluation (§6): engine factories, the
// data-structure workloads of Figure 4–7, the SPS microbenchmark of
// Figure 9, the db_bench-style workloads of Figure 8, recovery timing
// (§6.5), the pwb histograms of §6.2 and the Table 1 cost measurements.
// Each result renders as text here (Table1, Fig4 … Fig9, PwbHist,
// Recovery); cmd/romulus-bench and the top-level bench_test.go are thin
// drivers over this package.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/redolog"
	"repro/internal/undolog"
)

// Engine is the common surface the harness needs from any PTM.
type Engine interface {
	ptm.PTM
	Device() *pmem.Device
}

// EngineKinds lists the engines of the paper's evaluation in its plotting
// order: the three Romulus variants, Mnemosyne-style, PMDK-style.
var EngineKinds = []string{"rom", "romlog", "romlr", "mne", "pmdk"}

// NewEngine builds an engine by kind with the given per-copy region size
// and persistence model.
func NewEngine(kind string, regionSize int, model pmem.Model) (Engine, error) {
	switch kind {
	case "rom":
		return core.New(regionSize, core.Config{Variant: core.Rom, Model: model})
	case "romlog":
		return core.New(regionSize, core.Config{Variant: core.RomLog, Model: model})
	case "romlr":
		return core.New(regionSize, core.Config{Variant: core.RomLR, Model: model})
	case "mne":
		// Large segments so SPS transactions of 1,024 swaps fit.
		return redolog.New(regionSize, redolog.Config{Model: model, SegmentSize: 1 << 20})
	case "pmdk":
		// Scale the undo log with the region: the real libpmemobj grows
		// its log, and Figure 6's hash-map resize transactions snapshot
		// large fractions of the table.
		logSize := regionSize/2 + (4 << 20)
		return undolog.New(regionSize, undolog.Config{Model: model, LogSize: logSize})
	}
	return nil, fmt.Errorf("bench: unknown engine kind %q", kind)
}

// ParseEngines splits a comma-separated engine list. "" and "all" give nil,
// which selects each result's default list.
func ParseEngines(s string) ([]string, error) {
	if s == "" || s == "all" {
		return nil, nil
	}
	kinds := strings.Split(s, ",")
	for _, k := range kinds {
		ok := false
		for _, known := range EngineKinds {
			if k == known {
				ok = true
			}
		}
		if !ok {
			return nil, fmt.Errorf("bench: unknown engine %q", k)
		}
	}
	return kinds, nil
}

// ParseInts parses a comma-separated integer list; the empty string is the
// empty list.
func ParseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil {
			return nil, fmt.Errorf("bench: bad integer %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// Table is a simple aligned-column printer for benchmark output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1000:
		return fmt.Sprintf("%.0f", x)
	case x >= 10:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
