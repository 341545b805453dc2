package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
)

// Edge-case and stress tests for the end-to-end solver.

func quickSolve(t *testing.T, g *graph.Graph, eps float64) *result {
	t.Helper()
	res, err := solveGraph(g, Options{Eps: eps, P: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Matching.Validate(g); err != nil {
		t.Fatalf("invalid matching: %v", err)
	}
	return res
}

func TestSolveDisconnectedComponents(t *testing.T) {
	// Two far-apart cliques plus isolated vertices.
	g := graph.New(24)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			g.MustAddEdge(i, j, 5)
			g.MustAddEdge(10+i, 10+j, 3)
		}
	}
	res := quickSolve(t, g, 0.25)
	_, opt := matching.MaxWeightMatchingFloat(g, false)
	if res.Weight < opt*(1-0.3) {
		t.Fatalf("disconnected ratio %f", res.Weight/opt)
	}
}

func TestSolveStarGraph(t *testing.T) {
	// A star can match only one edge; the heaviest should be found.
	g := graph.New(30)
	for i := 1; i < 30; i++ {
		g.MustAddEdge(0, i, float64(i))
	}
	res := quickSolve(t, g, 0.25)
	if res.Weight != 29 {
		t.Fatalf("star weight %f, want 29", res.Weight)
	}
}

func TestSolveStarWithCapacity(t *testing.T) {
	// With b(center)=5 the star matches its 5 heaviest edges.
	g := graph.New(30)
	g.SetB(0, 5)
	for i := 1; i < 30; i++ {
		g.MustAddEdge(0, i, float64(i))
	}
	res := quickSolve(t, g, 0.25)
	want := float64(29 + 28 + 27 + 26 + 25)
	if res.Weight < want*(1-0.25) {
		t.Fatalf("capacitated star %f, want ~%f", res.Weight, want)
	}
}

func TestSolveLongPath(t *testing.T) {
	const n = 101
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	res := quickSolve(t, g, 0.25)
	if res.Matching.Size() < 50*3/4 {
		t.Fatalf("path matching size %d, optimum 50", res.Matching.Size())
	}
}

func TestSolveParallelEdges(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 1, 9) // heavier parallel copy
	g.MustAddEdge(2, 3, 4)
	res := quickSolve(t, g, 0.25)
	if res.Weight < 13*(1-0.3) {
		t.Fatalf("parallel-edge weight %f, want ~13", res.Weight)
	}
}

func TestSolveHugeDynamicRange(t *testing.T) {
	// Weights spanning 6 orders of magnitude: discretization must keep
	// the heavy edges and may drop the negligible ones.
	g := graph.New(8)
	g.MustAddEdge(0, 1, 1e6)
	g.MustAddEdge(2, 3, 1e3)
	g.MustAddEdge(4, 5, 1)
	g.MustAddEdge(6, 7, 1e-3) // dropped by discretization (< W*/B)
	res := quickSolve(t, g, 0.25)
	if res.Weight < (1e6+1e3+1)*(1-0.3) {
		t.Fatalf("dynamic-range weight %f", res.Weight)
	}
}

func TestSolveEpsNearHalf(t *testing.T) {
	g := graph.GNM(20, 60, graph.WeightConfig{Mode: graph.UnitWeights}, 31)
	res := quickSolve(t, g, 0.49)
	if res.Weight <= 0 {
		t.Fatal("empty matching at eps=0.49")
	}
}

func TestSolveSmallEps(t *testing.T) {
	// Small eps means many levels and tight discretization; just verify
	// it completes with good quality on a small instance.
	g := graph.GNM(16, 50, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 10}, 37)
	res, err := solveGraph(g, Options{Eps: 1.0 / 16, P: 2, Seed: 5, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Matching.Validate(g); err != nil {
		t.Fatal(err)
	}
	_, opt := matching.MaxWeightMatchingFloat(g, false)
	if res.Weight < opt*(1-1.0/8) {
		t.Fatalf("small-eps ratio %f", res.Weight/opt)
	}
}

func TestSolveCompleteGraphDense(t *testing.T) {
	g := graph.GNP(40, 1, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 9}, 41)
	res := quickSolve(t, g, 0.25)
	_, opt := matching.MaxWeightMatchingFloat(g, false)
	if res.Weight < opt*(1-0.3) {
		t.Fatalf("dense ratio %f", res.Weight/opt)
	}
}

func TestSolveAllEqualWeights(t *testing.T) {
	// Equal weights exercise the single-level path.
	g := graph.GNM(40, 200, graph.WeightConfig{Mode: graph.UnitWeights}, 43)
	res := quickSolve(t, g, 0.25)
	edges := make([]matching.WEdge, g.M())
	for i, e := range g.Edges() {
		edges[i] = matching.WEdge{U: e.U, V: e.V, W: 1}
	}
	mate, _ := matching.MaxWeightMatching(g.N(), edges, true)
	maxCard := 0
	for v, u := range mate {
		if u >= 0 && int32(v) < u {
			maxCard++
		}
	}
	if res.Matching.Size() < int(float64(maxCard)*(1-0.3)) {
		t.Fatalf("cardinality %d vs optimum %d", res.Matching.Size(), maxCard)
	}
}

func TestSolveBipartiteInput(t *testing.T) {
	// Bipartite graphs are a special case the nonbipartite machinery
	// must handle without odd-set interference.
	g := graph.Bipartite(20, 20, 160, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, 47)
	res := quickSolve(t, g, 0.25)
	_, opt := matching.MaxWeightMatchingFloat(g, false)
	if res.Weight < opt*(1-0.3) {
		t.Fatalf("bipartite ratio %f", res.Weight/opt)
	}
}

func TestSolveWeightScaleInvariance(t *testing.T) {
	// Scaling all weights by a constant scales the result accordingly.
	g1 := graph.GNM(24, 100, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 7}, 53)
	g2 := graph.New(24)
	for _, e := range g1.Edges() {
		g2.MustAddEdge(int(e.U), int(e.V), e.W*1000)
	}
	r1 := quickSolve(t, g1, 0.25)
	r2 := quickSolve(t, g2, 0.25)
	if math.Abs(r2.Weight/1000-r1.Weight)/r1.Weight > 0.05 {
		t.Fatalf("not scale invariant: %f vs %f", r1.Weight, r2.Weight/1000)
	}
}
