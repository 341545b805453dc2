package bench

import (
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/graph"
)

// E14Workers — the solver's worker scaling (DESIGN.md, "Parallel
// pipeline"): wall-clock time of one solve as Options.Workers grows,
// with a bit-identity check of every result against its Workers:1
// baseline. This is the workers-scaling table of EXPERIMENTS.md.
func E14Workers(cfg Config) Table {
	t := Table{
		ID:      "E14",
		Title:   "solver workers scaling (bit-identical results)",
		Columns: []string{"component", "n", "m", "workers", "ms", "speedup", "identical"},
	}
	workerSet := []int{1, 2, 4}
	if cfg.Quick {
		workerSet = []int{1, 2}
	}

	// Instance size: quick mode keeps CI fast.
	solveN, solveM := 192, 1920
	if cfg.Quick {
		solveN, solveM = 64, 512
	}

	// Best-of-5 wall time with a forced collection before each trial: a
	// single sample is too noisy to read a speedup from, and stray GC
	// cycles otherwise land on arbitrary configurations.
	trials := 5
	if cfg.Quick {
		trials = 3
	}
	timeBest := func(fn func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for trial := 0; trial < trials; trial++ {
			runtime.GC()
			if d := timeIt(fn); d < best {
				best = d
			}
		}
		return best
	}
	ms := func(d time.Duration) string { return fr(float64(d.Microseconds()) / 1000) }

	// Every sampling round of the solve runs the sharded pipeline, and
	// its sparsifiers build one DeferredBuilder per (use, level) job
	// across the pool.
	wc := graph.WeightConfig{Mode: graph.UniformWeights, WMax: 50}
	g := graph.GNM(solveN, solveM, wc, cfg.Seed+411)
	var solveErr error
	solve := func(w int) any {
		res, err := solveGraph(g, 0.25, 2, cfg.Seed+413, w)
		if err != nil {
			if solveErr == nil {
				solveErr = err
			}
			return nil
		}
		return res
	}
	solve(1) // warm-up: grow the heap before timing so the first
	// measured configuration doesn't pay the GC ramp alone
	var baseline any
	var baseMS time.Duration
	for _, w := range workerSet {
		var out any
		elapsed := timeBest(func() { out = solve(w) })
		identical := "-"
		speedup := "1.000"
		switch {
		case out == nil:
			// The solve errored: a nil-vs-nil DeepEqual must not read as
			// a passing bit-identity check.
			identical = "ERR"
			speedup = "-"
		case w == 1:
			baseline, baseMS = out, elapsed
		case baseline == nil:
			identical = "ERR"
			speedup = "-"
		default:
			if reflect.DeepEqual(baseline, out) {
				identical = "yes"
			} else {
				identical = "NO"
			}
			speedup = fr(float64(baseMS) / float64(elapsed))
		}
		t.AddRow("match-solve", d(solveN), d(solveM), d(w), ms(elapsed), speedup, identical)
	}
	if solveErr != nil {
		t.Note("match-solve: %v", solveErr)
	}

	t.Note("expected shape: identical=yes everywhere; speedup > 1 at workers > 1 when GOMAXPROCS > 1")
	t.Note("speedup is best-of-%d wall time vs the workers=1 baseline on the same instance (warmed heap, GC between trials)", trials)
	t.Note("GOMAXPROCS=%d on this run; at 1, a single scheduler thread holds every speedup near 1 by construction", runtime.GOMAXPROCS(0))
	return t
}
