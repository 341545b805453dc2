package bench

import (
	"context"
	"runtime"

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

// E17Throughput measures session reuse: repeat-solve allocations
// through one reused (and, for the dual-primal solver, warm-started)
// session versus the construct-per-call cold baseline. E18 measures
// fleet throughput, over a socket. The alloc ratio stacks two effects:
// the session's retained scratch (dual-state table, the builder grid
// with its forests) removes the rebuild, and the chained warm duals
// end a repeat solve in one round, which removes most of the work.
func E17Throughput(cfg Config) Table {
	t := Table{
		ID:    "E17",
		Title: "session reuse and warm-started duals",
		Columns: []string{"algo", "family", "n", "m", "allocs/solve cold", "allocs/solve reused",
			"alloc ratio"},
	}
	n, m, repeats := 64, 512, 6
	if cfg.Quick {
		n, m, repeats = 40, 240, 4
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
			t.AddRow(algo, fam.name, d(fam.g.N()), d(fam.g.M()), f(cold), f(reused), fr(cold/reused))
		}
	}
	t.Note("cold = match.New + Solve per call; reused = one Solver (cached session), dual-primal chained through WithInitialDuals")
	t.Note("allocs measured AllocsPerRun-style at GOMAXPROCS(1), one worker per solve")
	return t
}
