package sketch

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func ringEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, 0, 2*n)
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{U: int32(v), V: int32((v + 1) % n), W: 1})
	}
	for v := 0; v < n; v += 3 {
		edges = append(edges, graph.Edge{U: int32(v), V: int32((v + n/2) % n), W: 1})
	}
	return edges
}

// TestBankParallelBitIdentical is the sketch layer's half of the
// pipeline's determinism contract: the sharded construction must produce
// exactly the sequential bank, for any worker count.
func TestBankParallelBitIdentical(t *testing.T) {
	const n = 97
	spec := NewIncidenceSpec(xrand.New(7), n, 9, 12, 8)
	edges := ringEdges(n)

	seq := spec.NewBank()
	for _, e := range edges {
		seq.AddEdge(e.U, e.V)
	}
	for _, workers := range []int{1, 2, 4, 0} {
		par := spec.BuildBankArena(edges, workers, nil)
		if !reflect.DeepEqual(seq.sketches, par.sketches) {
			t.Fatalf("workers=%d: parallel bank state differs from sequential", workers)
		}
	}
}

func TestBankParallelSpanningForest(t *testing.T) {
	const n = 64
	spec := NewIncidenceSpec(xrand.New(11), n, 10, 12, 8)
	edges := make([]graph.Edge, 0, n-1)
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: int32(v), V: int32(v + 1), W: 1})
	}
	bank := spec.BuildBankArena(edges, 4, nil)
	forest, uf, err := bank.SpanningForest()
	if err != nil {
		t.Fatal(err)
	}
	if uf.Components() != 1 {
		t.Fatalf("path graph split into %d components", uf.Components())
	}
	if len(forest) != n-1 {
		t.Fatalf("forest has %d edges, want %d", len(forest), n-1)
	}
}

func TestAddEdgesRejectsSelfLoop(t *testing.T) {
	spec := NewIncidenceSpec(xrand.New(3), 8, 2, 8, 4)
	bank := spec.NewBankParallel(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self loop")
		}
	}()
	bank.AddEdges([]graph.Edge{{U: 3, V: 3, W: 1}}, 2)
}
