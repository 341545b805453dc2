// Package bench implements the experiment harness: one runner per
// experiment in the index of DESIGN.md section 4 (E1–E19, EA, ES), each
// regenerating a quantitative claim or figure of the paper as a
// printable table. The cmd/matchbench binary and the repository-root
// testing.B benchmarks are thin wrappers around these runners.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/parallel"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.4g", v) }

// fr formats a ratio.
func fr(v float64) string { return fmt.Sprintf("%.3f", v) }

// d formats an int.
func d(v int) string { return fmt.Sprintf("%d", v) }

// Config controls experiment scale.
type Config struct {
	// Quick shrinks sizes for CI / testing.B use.
	Quick bool
	// Seed is the base seed.
	Seed uint64
	// Workers is passed to every solver/substrate invocation that
	// supports the sharded pipeline (0 = GOMAXPROCS, 1 = sequential).
	// Results are bit-identical across worker counts; tables record the
	// setting so rows stay attributable.
	Workers int
}

// noteWorkers appends the standard workers attribution to a table whose
// rows were produced through the parallel pipeline, recording both the
// requested setting and the count it resolved to on this machine.
func noteWorkers(t *Table, cfg Config) {
	resolved := parallel.Workers(cfg.Workers)
	if resolved == 1 {
		t.Note("workers=%d resolved to 1 (sequential)", cfg.Workers)
		return
	}
	t.Note("workers=%d resolved to %d (results are bit-identical across worker counts)", cfg.Workers, resolved)
}

// IDs returns every experiment id in canonical run order.
func IDs() []string {
	return []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
		"e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e19", "ea", "es"}
}

// ByID returns the experiment runner for an id like "e7".
func ByID(id string) (func(Config) Table, bool) {
	m := map[string]func(Config) Table{
		"e1": E1Approximation, "e2": E2RoundsSpace, "e3": E3Baselines,
		"e4": E4Adaptivity, "e5": E5TriangleGap, "e6": E6Width,
		"e7": E7Sparsifier, "e8": E8Filtering, "e9": E9MapReduce,
		"e10": E10BMatching, "e11": E11Congest, "e12": E12Relaxations,
		"e13": E13Scaling, "e14": E14Workers, "e15": E15Backends,
		"e16": E16Algorithms, "e17": E17Throughput, "e18": E18Serving,
		"e19": E19FileCodecs,
		"ea":  EAblations, "es": ESemiStream,
	}
	fn, ok := m[strings.ToLower(id)]
	return fn, ok
}

// timeIt measures the wall time of fn.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
