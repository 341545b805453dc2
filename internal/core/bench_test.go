package core

import (
	"testing"

	"repro/internal/graph"
)

func BenchmarkSolveSmall(b *testing.B) {
	g := graph.GNM(64, 512, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveGraph(g, Options{Eps: 0.25, P: 2, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveRound(b *testing.B) {
	// Single-round cost (sampling + offline + one batch of oracle uses).
	g := graph.GNM(128, 1024, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveGraph(g, Options{Eps: 0.25, P: 2, Seed: uint64(i), MaxRounds: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
