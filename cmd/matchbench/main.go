// Command matchbench runs the experiment suite (the tables of DESIGN.md
// section 4; -h lists their ids) and prints one table per experiment.
// Each table regenerates a quantitative claim or figure of Ahn–Guha
// (SPAA 2015).
//
// Usage:
//
//	matchbench                 # run everything at full scale
//	matchbench -quick          # CI-sized runs
//	matchbench -exp e1,e6,e7   # selected experiments
//	matchbench -seed 42
//	matchbench -workers 4      # shard the pipeline (0 = GOMAXPROCS)
//	matchbench -json -rev abc  # also write BENCH_abc.json
//	matchbench -compare BENCH_pr3.json BENCH_pr4.json
//	matchbench -exp e17        # session reuse and warm duals
//	matchbench -exp e18        # HTTP serving layer (matchd) over a socket
//
// With -json the run is additionally captured as a machine-readable
// BENCH_<rev>.json (override the path with -jsonpath): every table's
// rows plus per-experiment wall time, so successive revisions accumulate
// a perf trajectory that tooling can diff. -compare diffs two such
// captures — per-experiment wall-time deltas with regression flags — so
// the committed BENCH_<rev>.json files form a usable trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/parallel"
)

// benchDoc is the BENCH_<rev>.json schema.
type benchDoc struct {
	Rev             string      `json:"rev"`
	GoVersion       string      `json:"goVersion"`
	GOMAXPROCS      int         `json:"gomaxprocs"`
	Quick           bool        `json:"quick"`
	Seed            uint64      `json:"seed"`
	Workers         int         `json:"workers"`
	WorkersResolved int         `json:"workersResolved"`
	TotalWallMS     float64     `json:"totalWallMs"`
	Experiments     []benchItem `json:"experiments"`
}

type benchItem struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	WallMS  float64    `json:"wallMs"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

func main() {
	quick := flag.Bool("quick", false, "shrink experiment sizes")
	known := strings.Join(bench.IDs(), ",")
	exps := flag.String("exp", "", "comma-separated experiment ids out of "+known+" (default: all)")
	seed := flag.Uint64("seed", 1, "base random seed")
	workers := flag.Int("workers", 0, "pipeline workers (0 = GOMAXPROCS, 1 = sequential)")
	jsonOut := flag.Bool("json", false, "also write a machine-readable BENCH_<rev>.json")
	rev := flag.String("rev", "dev", "revision label for the JSON capture")
	jsonPath := flag.String("jsonpath", "", "override the JSON capture path (default BENCH_<rev>.json)")
	compare := flag.String("compare", "", "diff two BENCH captures: -compare OLD.json NEW.json (no experiments are run)")
	flag.Parse()

	if *compare != "" {
		newPath := flag.Arg(0)
		if newPath == "" {
			fmt.Fprintln(os.Stderr, "usage: matchbench -compare OLD.json NEW.json")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, *compare, newPath); err != nil {
			fmt.Fprintf(os.Stderr, "compare: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed, Workers: *workers}
	ids := bench.IDs()
	if *exps != "" {
		ids = ids[:0]
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if _, ok := bench.ByID(id); !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", id, known)
				os.Exit(2)
			}
			ids = append(ids, strings.ToLower(id))
		}
	}

	doc := benchDoc{
		Rev:             *rev,
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Quick:           *quick,
		Seed:            *seed,
		Workers:         *workers,
		WorkersResolved: parallel.Workers(*workers),
	}
	for _, id := range ids {
		fn, _ := bench.ByID(id)
		start := time.Now()
		tab := fn(cfg)
		wallMS := float64(time.Since(start).Microseconds()) / 1000
		tab.Print(os.Stdout)
		doc.TotalWallMS += wallMS
		doc.Experiments = append(doc.Experiments, benchItem{
			ID: tab.ID, Title: tab.Title, WallMS: wallMS,
			Columns: tab.Columns, Rows: tab.Rows, Notes: tab.Notes,
		})
	}

	writeCapture(*jsonOut, *jsonPath, *rev, doc)
}

func writeCapture(jsonOut bool, jsonPath, rev string, doc benchDoc) {
	if jsonOut {
		path := jsonPath
		if path == "" {
			path = fmt.Sprintf("BENCH_%s.json", rev)
		}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "encode: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d experiments, %.0f ms total)\n", path, len(doc.Experiments), doc.TotalWallMS)
	}
}

// regressionFactor is how much slower an experiment must get (with a
// small absolute floor to ignore timer noise on sub-millisecond runs)
// before -compare flags it.
const (
	regressionFactor  = 1.25
	regressionFloorMS = 2.0
)

// loadCapture reads one BENCH_<rev>.json document.
func loadCapture(path string) (benchDoc, error) {
	var doc benchDoc
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// runCompare diffs two BENCH captures: per-experiment wall-time deltas
// with regression/improvement flags, plus totals. Experiments present in
// only one capture are listed as added/removed — a diff across revisions
// that grew the suite stays readable.
func runCompare(w io.Writer, oldPath, newPath string) error {
	oldDoc, err := loadCapture(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadCapture(newPath)
	if err != nil {
		return err
	}
	oldBy := make(map[string]benchItem, len(oldDoc.Experiments))
	for _, it := range oldDoc.Experiments {
		oldBy[it.ID] = it
	}
	fmt.Fprintf(w, "compare %s (%s) -> %s (%s)\n", oldDoc.Rev, oldPath, newDoc.Rev, newPath)
	fmt.Fprintf(w, "%-6s %12s %12s %9s  %s\n", "exp", oldDoc.Rev+" ms", newDoc.Rev+" ms", "delta", "flag")
	regressions := 0
	for _, it := range newDoc.Experiments {
		old, ok := oldBy[it.ID]
		if !ok {
			fmt.Fprintf(w, "%-6s %12s %12.1f %9s  added\n", it.ID, "-", it.WallMS, "-")
			continue
		}
		delete(oldBy, it.ID)
		delta := it.WallMS - old.WallMS
		pct := 0.0
		if old.WallMS > 0 {
			pct = 100 * delta / old.WallMS
		}
		flag := ""
		switch {
		case it.WallMS > old.WallMS*regressionFactor && delta > regressionFloorMS:
			flag = "REGRESSION"
			regressions++
		case old.WallMS > it.WallMS*regressionFactor && -delta > regressionFloorMS:
			flag = "improved"
		}
		fmt.Fprintf(w, "%-6s %12.1f %12.1f %+8.1f%%  %s\n", it.ID, old.WallMS, it.WallMS, pct, flag)
	}
	for _, it := range oldDoc.Experiments {
		if _, still := oldBy[it.ID]; still {
			fmt.Fprintf(w, "%-6s %12.1f %12s %9s  removed\n", it.ID, it.WallMS, "-", "-")
		}
	}
	fmt.Fprintf(w, "total  %12.1f %12.1f  (%d experiments -> %d, %d regression flags)\n",
		oldDoc.TotalWallMS, newDoc.TotalWallMS, len(oldDoc.Experiments), len(newDoc.Experiments), regressions)
	return nil
}
