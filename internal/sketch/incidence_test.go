package sketch

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func buildBank(t *testing.T, g *graph.Graph, seed uint64) *Bank {
	t.Helper()
	spec := NewIncidenceSpec(xrand.New(seed), g.N(), log2ceil(g.N())+3, 12, 8)
	bank := spec.NewBank(1)
	for _, e := range g.Edges() {
		bank.AddEdge(e.U, e.V)
	}
	return bank
}

func TestSampleCutEdge(t *testing.T) {
	// Path 0-1-2-3: cut {0,1} has exactly edge (1,2).
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	bank := buildBank(t, g, 21)
	u, v, ok := bank.SampleCutEdge(0, []int{0, 1})
	if !ok {
		t.Fatal("cut edge not found")
	}
	if graph.KeyOf(u, v) != graph.KeyOf(1, 2) {
		t.Fatalf("sampled (%d,%d), want (1,2)", u, v)
	}
}

func TestSampleCutEmpty(t *testing.T) {
	// Two disconnected edges: cut around one component is empty.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	bank := buildBank(t, g, 22)
	if _, _, ok := bank.SampleCutEdge(0, []int{0, 1}); ok {
		t.Fatal("sampled an edge from an empty cut")
	}
}

func TestInternalEdgesCancel(t *testing.T) {
	// Triangle: merging all three vertices leaves the zero vector.
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(0, 2, 1)
	bank := buildBank(t, g, 23)
	merged := bank.MergeCut(0, []int{0, 1, 2})
	if _, _, ok := merged.Sample(); ok {
		t.Fatal("internal edges did not cancel")
	}
}

func TestEdgeDeletion(t *testing.T) {
	g := graph.New(3)
	spec := NewIncidenceSpec(xrand.New(24), 3, 4, 8, 8)
	bank := spec.NewBank(1)
	_ = g
	bank.AddEdge(0, 1)
	bank.AddEdge(1, 2)
	bank.update(0, 1, -1) // linear sketches support deletions natively
	u, v, ok := bank.SampleCutEdge(0, []int{0, 1})
	if !ok || graph.KeyOf(u, v) != graph.KeyOf(1, 2) {
		t.Fatalf("after deletion sampled (%d,%d,%v), want (1,2)", u, v, ok)
	}
}

func TestSpanningForestConnected(t *testing.T) {
	g := graph.GNM(60, 300, graph.WeightConfig{}, 25)
	_, comps := g.ConnectedComponents()
	bank := buildBank(t, g, 26)
	forest, uf, err := bank.SpanningForest()
	if err != nil {
		t.Fatal(err)
	}
	if uf.Components() != comps {
		t.Fatalf("sketch forest found %d components, true %d", uf.Components(), comps)
	}
	if len(forest) != g.N()-comps {
		t.Fatalf("forest has %d edges, want %d", len(forest), g.N()-comps)
	}
	// Every forest edge must be a real edge.
	real := map[uint64]bool{}
	for _, e := range g.Edges() {
		real[e.Key()] = true
	}
	for _, e := range forest {
		if !real[e.Key()] {
			t.Fatalf("forest edge (%d,%d) not in graph", e.U, e.V)
		}
	}
}

func TestSpanningForestDisconnected(t *testing.T) {
	g := graph.New(9)
	// Three triangles.
	for tIdx := 0; tIdx < 3; tIdx++ {
		a := 3 * tIdx
		g.MustAddEdge(a, a+1, 1)
		g.MustAddEdge(a+1, a+2, 1)
		g.MustAddEdge(a, a+2, 1)
	}
	bank := buildBank(t, g, 27)
	forest, uf, err := bank.SpanningForest()
	if err != nil {
		t.Fatal(err)
	}
	if uf.Components() != 3 || len(forest) != 6 {
		t.Fatalf("components=%d forest=%d, want 3 and 6", uf.Components(), len(forest))
	}
}

func TestSpanningForestPath(t *testing.T) {
	// Worst case for Boruvka depth: long path.
	const n = 64
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	bank := buildBank(t, g, 28)
	_, uf, err := bank.SpanningForest()
	if err != nil {
		t.Fatal(err)
	}
	if uf.Components() != 1 {
		t.Fatalf("path not connected by sketch forest: %d comps", uf.Components())
	}
}
