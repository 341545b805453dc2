package sparsify

import (
	"testing"

	"repro/internal/graph"
)

func BenchmarkUnweightedSparsify(b *testing.B) {
	g := graph.GNP(200, 0.5, graph.WeightConfig{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphSparsifier(g, Config{Xi: 0.25, Seed: uint64(i)})
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
