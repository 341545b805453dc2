package bench

import (
	"context"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

// allocsPerRun measures heap allocations per call of fn, in the style
// of testing.AllocsPerRun: pinned to one OS thread's worth of
// parallelism so background worker allocation does not pollute the
// count, with a warm-up call before the measured window. fn receives
// the 1-based iteration index.
func allocsPerRun(runs int, warmup int, fn func(i int)) float64 {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for i := 0; i < warmup; i++ {
		fn(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn(warmup + i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// E17Throughput measures the session/pool serving layer: repeat-solve
// allocations through one reused (and, for the dual-primal solver,
// warm-started) session versus the construct-per-call cold baseline,
// and fleet throughput through match.Pool with J concurrent jobs × R
// repeat-solves per configuration. The alloc ratio stacks two effects:
// the session's retained scratch (dual-state table, the builder grid
// with its forests) removes the rebuild, and the chained warm duals
// end a repeat solve in one round, which removes most of the work.
func E17Throughput(cfg Config) Table {
	t := Table{
		ID:    "E17",
		Title: "serving throughput: session reuse, warm-started duals, match.Pool",
		Columns: []string{"algo", "family", "n", "m", "allocs/solve cold", "allocs/solve reused",
			"alloc ratio", "pool jobs", "pool solves", "solves/s"},
	}
	n, m, repeats := 64, 512, 6
	poolJobs, poolRepeats := 3, 4
	if cfg.Quick {
		n, m, repeats = 40, 240, 4
		poolRepeats = 2
	}
	type family struct {
		name string
		g    *graph.Graph
	}
	families := []family{
		{"gnm-uniform", graph.GNM(n, m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, cfg.Seed+100)},
		{"gnm-unit", graph.GNM(n, m, graph.WeightConfig{Mode: graph.UnitWeights}, cfg.Seed+101)},
	}
	ctx := context.Background()
	for _, algo := range []string{"dual-primal", "greedy-augment"} {
		for _, fam := range families {
			src := stream.NewEdgeStream(fam.g)
			// ε = 0.3 keeps the dual-primal certificate target reachable,
			// so warm repeats converge in one round — the regime the
			// serving layer is built for.
			opts := []match.Option{match.WithSeed(cfg.Seed + 7), match.WithWorkers(1),
				match.WithEps(0.3), match.WithAlgorithm(algo)}

			// Cold baseline: construct-per-call, the pre-session shape.
			cold := allocsPerRun(repeats, 1, func(int) {
				solver, err := match.New(opts...)
				if err != nil {
					panic(err)
				}
				if _, err := solver.Solve(ctx, src); err != nil {
					panic(err)
				}
			})

			// Reused session; the dual-primal solver additionally chains
			// warm duals from solve to solve.
			solver, err := match.New(opts...)
			if err != nil {
				panic(err)
			}
			var prev *match.Result
			reused := allocsPerRun(repeats, 2, func(int) {
				var extra []match.Option
				if algo == match.DefaultAlgorithm && prev != nil {
					extra = append(extra, match.WithInitialDuals(prev))
				}
				res, err := solver.Solve(ctx, src, extra...)
				if err != nil {
					panic(err)
				}
				prev = res
			})
			ratio := cold / reused

			// Fleet throughput: J sessions, J×R jobs through the queue.
			pool, err := match.NewPool(poolJobs, opts...)
			if err != nil {
				panic(err)
			}
			solves := poolJobs * poolRepeats
			start := time.Now()
			chans := make([]<-chan match.JobResult, 0, solves)
			for j := 0; j < solves; j++ {
				chans = append(chans, pool.Submit(ctx, src))
			}
			for _, ch := range chans {
				if r := <-ch; r.Err != nil {
					panic(r.Err)
				}
			}
			wall := time.Since(start)
			pool.Close()
			perSec := float64(solves) / wall.Seconds()

			t.AddRow(algo, fam.name, d(fam.g.N()), d(fam.g.M()),
				f(cold), f(reused), fr(ratio), d(poolJobs), d(solves), f(perSec))
		}
	}
	t.Note("cold = match.New + Solve per call; reused = one Solver (cached session), dual-primal chained through WithInitialDuals")
	t.Note("allocs measured AllocsPerRun-style at GOMAXPROCS(1); pool rows share the configured worker budget across %d sessions", poolJobs)
	noteWorkers(&t, cfg)
	return t
}
