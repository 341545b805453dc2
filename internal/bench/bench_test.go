package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestTablePrint(t *testing.T) {
	tab := Table{ID: "EX", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Note("hello %d", 7)
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, want := range []string{"EX", "demo", "a", "bb", "1", "2", "hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"e1", "E5", "e13"} {
		if _, ok := ByID(id); !ok {
			t.Fatalf("missing experiment %s", id)
		}
	}
	if _, ok := ByID("e99"); ok {
		t.Fatal("bogus id accepted")
	}
}

// Each experiment must run in quick mode and produce at least one row,
// and every cell of a column named "identical" (a bit-identity check
// against the table's baseline) must read "yes", or "-" on the baseline
// row itself.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Quick: true, Seed: 5}
	for _, id := range IDs() {
		fn, _ := ByID(id)
		tab := fn(cfg)
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", tab.ID)
		}
		if tab.ID == "" || tab.Title == "" || len(tab.Columns) == 0 {
			t.Errorf("%s metadata incomplete", tab.ID)
		}
		identical := slices.Index(tab.Columns, "identical")
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("%s row width %d vs %d columns", tab.ID, len(row), len(tab.Columns))
				continue
			}
			if identical >= 0 && row[identical] != "yes" && row[identical] != "-" {
				t.Errorf("%s row %v: identical = %q", tab.ID, row, row[identical])
			}
		}
	}
}

// Fast experiments must run even in -short mode to keep the harness
// covered by the default CI loop.
func TestFastExperimentsShort(t *testing.T) {
	for _, id := range []string{"e5", "e6", "e8", "es"} {
		fn, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tab := fn(Config{Quick: true, Seed: 3})
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestQuickTablesPinned pins every row cell of E11, E16 and ES at
// Config{Quick: true, Seed: 5} against a committed golden: the clique
// protocol's pairs, each algorithm's weight and meters, and the
// semi-streaming baselines' ratios and passes. E16's wall-clock ms
// column is left out, and so are the notes (one names GOMAXPROCS).
func TestQuickTablesPinned(t *testing.T) {
	cfg := Config{Quick: true, Seed: 5}
	var buf strings.Builder
	for _, id := range []string{"e11", "e16", "es"} {
		fn, _ := ByID(id)
		tab := fn(cfg)
		skip := -1
		if tab.ID == "E16" {
			skip = slices.Index(tab.Columns, "ms")
		}
		for _, row := range tab.Rows {
			cells := []string{tab.ID}
			for i, c := range row {
				if i != skip {
					cells = append(cells, c)
				}
			}
			buf.WriteString(strings.Join(cells, "\t") + "\n")
		}
	}
	got := buf.String()
	golden := filepath.Join("testdata", "quick_tables.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Errorf("quick tables drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
