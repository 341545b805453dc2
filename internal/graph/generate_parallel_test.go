package graph

import (
	"reflect"
	"testing"
)

func graphsEqual(a, b *Graph) bool {
	return a.N() == b.N() && reflect.DeepEqual(a.Edges(), b.Edges())
}

func assertSimple(t *testing.T, g *Graph) {
	t.Helper()
	seen := map[uint64]bool{}
	for _, e := range g.Edges() {
		if e.U == e.V {
			t.Fatalf("self loop on %d", e.U)
		}
		k := e.Key()
		if seen[k] {
			t.Fatalf("duplicate edge {%d,%d}", e.U, e.V)
		}
		seen[k] = true
		if !(e.W > 0) {
			t.Fatalf("non-positive weight %v", e.W)
		}
	}
}

func TestGNMParallelWorkerInvariant(t *testing.T) {
	wc := WeightConfig{Mode: UniformWeights, WMax: 40}
	base := GNMParallel(500, 20000, wc, 77, 1)
	for _, workers := range []int{2, 4, 0} {
		g := GNMParallel(500, 20000, wc, 77, workers)
		if !graphsEqual(base, g) {
			t.Fatalf("workers=%d produced a different graph", workers)
		}
	}
	if base.M() != 20000 {
		t.Fatalf("m = %d, want 20000", base.M())
	}
	assertSimple(t, base)
}

func TestGNMParallelSeedsDiffer(t *testing.T) {
	wc := WeightConfig{}
	a := GNMParallel(200, 3000, wc, 1, 4)
	b := GNMParallel(200, 3000, wc, 2, 4)
	if graphsEqual(a, b) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGNMParallelCapsAtCompleteGraph(t *testing.T) {
	g := GNMParallel(12, 10000, WeightConfig{}, 5, 4)
	if want := 12 * 11 / 2; g.M() != want {
		t.Fatalf("m = %d, want complete %d", g.M(), want)
	}
	assertSimple(t, g)
}

func TestGNMParallelEmpty(t *testing.T) {
	if g := GNMParallel(10, 0, WeightConfig{}, 1, 4); g.M() != 0 {
		t.Fatalf("m = %d, want 0", g.M())
	}
}

func TestBipartiteParallelWorkerInvariant(t *testing.T) {
	wc := WeightConfig{Mode: UniformWeights, WMax: 10}
	base := BipartiteParallel(150, 250, 9000, wc, 13, 1)
	for _, workers := range []int{3, 0} {
		g := BipartiteParallel(150, 250, 9000, wc, 13, workers)
		if !graphsEqual(base, g) {
			t.Fatalf("workers=%d produced a different graph", workers)
		}
	}
	if base.M() != 9000 {
		t.Fatalf("m = %d", base.M())
	}
	assertSimple(t, base)
	for _, e := range base.Edges() {
		lo, hi := e.U, e.V
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo >= 150 || hi < 150 {
			t.Fatalf("edge {%d,%d} not bipartite", e.U, e.V)
		}
	}
}
