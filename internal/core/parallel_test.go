package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// The pipeline determinism contract at the solver level: Solve with
// Workers: k must return a bit-identical Result to Workers: 1 on the same
// seed — matching, weight, dual objective, and every Stats field
// including the per-round traces. This is the acceptance gate for the
// sharded sampling pipeline.

func solverCorpus() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnm-uniform": graph.GNM(64, 512, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 40}, 101),
		"gnm-powers":  graph.GNM(48, 300, graph.WeightConfig{Mode: graph.PowersOf, Eps: 0.25, Levels: 10}, 102),
		"gnm-exp":     graph.GNM(56, 400, graph.WeightConfig{Mode: graph.ExpWeights, Scale: 2}, 103),
		"powerlaw":    graph.PowerLaw(64, 10, 2.5, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, 104),
		"triangles":   graph.TriangleChain(16),
		"bipartite":   graph.BipartiteParallel(24, 24, 200, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 12}, 105, 2),
		"bmatching":   graph.WithRandomB(graph.GNM(40, 260, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 15}, 106), 3, false, 107),
	}
}

func TestSolveWorkersBitIdentical(t *testing.T) {
	for name, g := range solverCorpus() {
		base, err := solveGraph(g, Options{Eps: 0.25, P: 2, Seed: 7, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{2, 4, 0} {
			res, err := solveGraph(g, Options{Eps: 0.25, P: 2, Seed: 7, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(base, res) {
				t.Errorf("%s workers=%d: Result differs from Workers:1\nseq: weight=%v stats=%+v\npar: weight=%v stats=%+v",
					name, workers, base.Weight, base.Stats, res.Weight, res.Stats)
			}
		}
	}
}

func TestSolveWorkersBitIdenticalSmallEps(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := graph.GNM(64, 512, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 201)
	base, err := solveGraph(g, Options{Eps: 0.125, P: 3, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := solveGraph(g, Options{Eps: 0.125, P: 3, Seed: 11, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, res) {
		t.Fatalf("eps=1/8 p=3: parallel result differs from sequential")
	}
}

func TestSolveWorkersValidMatching(t *testing.T) {
	g := graph.GNM(80, 640, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 50}, 301)
	res, err := solveGraph(g, Options{Eps: 0.25, P: 2, Seed: 13, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Matching.Validate(g); err != nil {
		t.Fatal(err)
	}
	if res.Weight <= 0 {
		t.Fatal("empty matching from parallel solve")
	}
}
