package core

import (
	"testing"

	"repro/internal/graph"
)

func TestProfileEps8(t *testing.T) {
	g := graph.GNM(128, 1024, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 50}, 128)
	res, err := solveGraph(g, Options{Eps: 0.125, P: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rounds=%d uses=%d micro=%d zsets-words=%d", res.Stats.SamplingRounds, res.Stats.OracleUses, res.Stats.MicroCalls, res.Stats.DualStateWords)
}
