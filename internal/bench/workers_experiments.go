package bench

import (
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/sketch"
	"repro/internal/xrand"
)

// E14Workers — the parallel sharded pipeline (DESIGN.md, "Parallel
// pipeline"): wall-clock scaling of the two sharded layers and the full
// solver as the worker count grows, with a bit-identity check of every
// parallel result against its Workers:1 baseline. This is the
// workers-scaling table of EXPERIMENTS.md.
func E14Workers(cfg Config) Table {
	t := Table{
		ID:      "E14",
		Title:   "parallel sharded pipeline: workers scaling (bit-identical results)",
		Columns: []string{"component", "n", "m", "workers", "ms", "speedup", "identical"},
	}
	workerSet := []int{1, 2, 4}
	if cfg.Quick {
		workerSet = []int{1, 2}
	}

	// Instance sizes: the full-scale run targets the largest seed
	// instances; quick mode keeps CI fast.
	genN, genM := 20000, 400000
	bankN, bankReps := 1200, 10
	solveN, solveM := 192, 1920
	if cfg.Quick {
		genN, genM = 2000, 20000
		bankN, bankReps = 200, 6
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

	addRows := func(component string, n, m int, run func(workers int) any) {
		run(1) // warm-up: grow the heap before timing so the first
		// measured configuration doesn't pay the GC ramp alone
		var baseline any
		var baseMS time.Duration
		for _, w := range workerSet {
			var out any
			elapsed := timeBest(func() { out = run(w) })
			identical := "-"
			speedup := "1.000"
			switch {
			case out == nil:
				// The component errored: a nil-vs-nil DeepEqual must not
				// read as a passing bit-identity check.
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
			t.AddRow(component, d(n), d(m), d(w), ms(elapsed), speedup, identical)
		}
	}

	// Layer 1: parallel synthetic generation (internal/graph).
	wc := graph.WeightConfig{Mode: graph.UniformWeights, WMax: 50}
	addRows("generate-gnm", genN, genM, func(w int) any {
		return graph.GNMParallel(genN, genM, wc, cfg.Seed+401, w).Edges()
	})

	// Layer 2: incidence-sketch bank construction (internal/sketch).
	// Every build after a bank's first Resets it in place and refills
	// it, the allocation-flat steady state a session reaches. Two banks
	// take turns: the workers=1 one, which addRows keeps as the DeepEqual
	// baseline of the bit-identity column, and one for the other worker
	// counts, so no build writes under the comparison.
	bankEdges := graph.GNMParallel(bankN, 8*bankN, graph.WeightConfig{}, cfg.Seed+403, 0).Edges()
	spec := sketch.NewIncidenceSpec(xrand.New(cfg.Seed+405), bankN, bankReps, 12, 8)
	rebuild := func(b *sketch.Bank, w int) *sketch.Bank {
		if b == nil {
			b = spec.NewBank(w)
		} else {
			b.Reset(w)
		}
		b.AddEdges(bankEdges, w)
		return b
	}
	var bankBase, bankCur *sketch.Bank
	addRows("sketch-bank", bankN, len(bankEdges), func(w int) any {
		if w == 1 {
			bankBase = rebuild(bankBase, w)
			return bankBase
		}
		bankCur = rebuild(bankCur, w)
		return bankCur
	})

	// Full solver: every sampling round runs the sharded pipeline, and
	// its sparsifiers build one DeferredBuilder per (use, level) job
	// across the pool.
	solveG := graph.GNMParallel(solveN, solveM, wc, cfg.Seed+411, 0)
	solveErrNoted := false
	addRows("match-solve", solveN, solveM, func(w int) any {
		res, err := solveGraph(solveG, 0.25, 2, cfg.Seed+413, w)
		if err != nil {
			if !solveErrNoted {
				t.Note("match-solve: %v", err)
				solveErrNoted = true
			}
			return nil
		}
		return res
	})

	t.Note("expected shape: identical=yes everywhere; speedup > 1 at workers=4 on the sharded layers when GOMAXPROCS > 1")
	t.Note("speedup is best-of-%d wall time vs the workers=1 baseline on the same instance (warmed heap, GC between trials)", trials)
	t.Note("GOMAXPROCS=%d on this run; at 1, a single scheduler thread holds every speedup near 1 by construction", runtime.GOMAXPROCS(0))
	return t
}
