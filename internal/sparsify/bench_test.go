package sparsify

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

func BenchmarkUnweightedSparsify(b *testing.B) {
	g := graph.GNP(200, 0.5, graph.WeightConfig{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unweighted(g, Config{Xi: 0.25, Seed: uint64(i)})
	}
}

// BenchmarkWeightedSparsifyWorkers measures the per-class parallel
// construction at several worker counts on a many-class instance (the
// workers-scaling row of EXPERIMENTS.md). Output is bit-identical across
// sub-benchmarks.
func BenchmarkWeightedSparsifyWorkers(b *testing.B) {
	g := graph.GNP(400, 0.5, graph.WeightConfig{Mode: graph.ExpWeights, Scale: 2}, 3)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Weighted(g, Config{Xi: 0.25, Seed: 7, Workers: workers})
			}
		})
	}
}

func BenchmarkDeferredSparsify(b *testing.B) {
	g := graph.GNP(200, 0.5, graph.WeightConfig{}, 2)
	sigma := make([]float64, g.M())
	for i := range sigma {
		sigma[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := NewDeferred(g.N(), func(j int) (int32, int32) {
			e := g.Edge(j)
			return e.U, e.V
		}, g.M(), sigma, 2, Config{Xi: 0.25, K: 8, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		d.Refine(func(int) float64 { return 1 })
	}
}
