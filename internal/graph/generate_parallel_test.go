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

// assertBipartite fails unless g is simple and every edge joins the left
// side 0..nl-1 to the right side.
func assertBipartite(t *testing.T, g *Graph, nl int) {
	t.Helper()
	assertSimple(t, g)
	for _, e := range g.Edges() {
		if min(e.U, e.V) >= int32(nl) || max(e.U, e.V) < int32(nl) {
			t.Fatalf("edge {%d,%d} not bipartite", e.U, e.V)
		}
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
	assertBipartite(t, base, 150)
}

// TestBipartiteParallelGuards checks the generator's guards: an empty
// side gives no edges, a target above nl·nr gives the complete bipartite
// graph, and a second seed gives a different graph.
func TestBipartiteParallelGuards(t *testing.T) {
	cases := []struct {
		name      string
		nl, nr, m int
		wantM     int
	}{
		{"empty-left", 0, 20, 50, 0},
		{"empty-right", 20, 0, 50, 0},
		{"capped", 6, 7, 1000, 42},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := BipartiteParallel(c.nl, c.nr, c.m, WeightConfig{}, 5, 4)
			if g.N() != c.nl+c.nr || g.M() != c.wantM {
				t.Fatalf("n = %d, m = %d, want %d and %d", g.N(), g.M(), c.nl+c.nr, c.wantM)
			}
			assertBipartite(t, g, c.nl)
		})
	}
	t.Run("seeds-differ", func(t *testing.T) {
		a := BipartiteParallel(150, 250, 3000, WeightConfig{}, 1, 4)
		b := BipartiteParallel(150, 250, 3000, WeightConfig{}, 2, 4)
		if graphsEqual(a, b) {
			t.Fatal("different seeds produced identical graphs")
		}
	})
}
