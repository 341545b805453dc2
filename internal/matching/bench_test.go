package matching

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
)

func BenchmarkBlossomExact(b *testing.B) {
	g := graph.GNM(200, 2000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 100}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxWeightMatchingFloat(g, false)
	}
}

func BenchmarkGreedy(b *testing.B) {
	g := graph.GNM(1000, 20000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 100}, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(g)
	}
}

func BenchmarkFiltering(b *testing.B) {
	g := graph.GNM(500, 20000, graph.WeightConfig{}, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := stream.NewEdgeStream(g)
		MaximalMatchingFilter(s, 2, uint64(i), nil)
	}
}

func BenchmarkHopcroftKarp(b *testing.B) {
	g := graph.Bipartite(500, 500, 10000, graph.WeightConfig{}, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hopcroftKarp(g)
	}
}
