package match_test

// Allocation benchmarks for the session lifecycle: cold
// construct-per-call solves, reused-session solves and warm-started
// repeat solves. CI runs these with -benchtime=1x as an allocation
// smoke — a regression that re-introduces per-solve rebuild cost shows
// up as an allocs/op jump here before it shows up in E17.

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

func benchGraph() *graph.Graph {
	return graph.GNM(48, 320, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 17)
}

func benchOpts() []match.Option {
	return []match.Option{match.WithSeed(7), match.WithWorkers(1), match.WithEps(0.3)}
}

func BenchmarkSolveCold(b *testing.B) {
	src := stream.NewEdgeStream(benchGraph())
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		solver, err := match.New(benchOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := solver.Solve(ctx, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveSessionReuse(b *testing.B) {
	src := stream.NewEdgeStream(benchGraph())
	ctx := context.Background()
	solver, err := match.New(benchOpts()...)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := solver.Solve(ctx, src); err != nil { // session warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(ctx, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveWarmRepeat(b *testing.B) {
	src := stream.NewEdgeStream(benchGraph())
	ctx := context.Background()
	solver, err := match.New(benchOpts()...)
	if err != nil {
		b.Fatal(err)
	}
	prev, err := solver.Solve(ctx, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solver.Solve(ctx, src, match.WithInitialDuals(prev))
		if err != nil {
			b.Fatal(err)
		}
		prev = res
	}
}
