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

	seq := spec.NewBank(1)
	for _, e := range edges {
		seq.AddEdge(e.U, e.V)
	}
	for _, workers := range []int{1, 2, 4, 0} {
		par := spec.NewBank(workers)
		par.AddEdges(edges, workers)
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
	bank := spec.NewBank(4)
	bank.AddEdges(edges, 4)
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
	bank := spec.NewBank(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self loop")
		}
	}()
	bank.AddEdges([]graph.Edge{{U: 3, V: 3, W: 1}}, 2)
}

// resetFixture returns a spec, the edges a rebuilt bank is filled with,
// and other edges that it holds before each Reset.
func resetFixture() (*IncidenceSpec, []graph.Edge, []graph.Edge) {
	const n = 96
	spec := NewIncidenceSpec(xrand.New(31), n, 6, 12, 8)
	other := make([]graph.Edge, 0, n)
	for v := 0; v < n; v++ {
		other = append(other, graph.Edge{U: int32(v), V: int32((v + 2) % n), W: 1})
	}
	return spec, ringEdges(n), other
}

// TestArenaBankBuildBitIdentity pins a rebuild in place against
// construction: a bank that held other edges, Reset and refilled at
// workers 1, 2 and 4, must equal a new bank filled with the same edges.
// The name dates from when rebuilt banks drew their samplers from a pool;
// Bank.Reset now rebuilds them where they are.
func TestArenaBankBuildBitIdentity(t *testing.T) {
	spec, edges, other := resetFixture()
	want := spec.NewBank(1)
	want.AddEdges(edges, 1)
	bank := spec.NewBank(1)
	bank.AddEdges(other, 1)
	for _, workers := range []int{1, 2, 4} {
		bank.Reset(workers)
		bank.AddEdges(edges, workers)
		if !reflect.DeepEqual(want, bank) {
			t.Fatalf("workers=%d: a Reset and refilled bank differs from a new bank", workers)
		}
		bank.AddEdges(other, workers)
	}
}

// TestBankBuildArenaAllocsFlat bounds a sequential Reset and refill at 8
// allocated objects: a rebuild allocates nothing per column, where a new
// bank allocates several objects per (vertex, repetition) pair.
func TestBankBuildArenaAllocsFlat(t *testing.T) {
	spec, edges, other := resetFixture()
	bank := spec.NewBank(1)
	bank.AddEdges(other, 1)
	allocs := testing.AllocsPerRun(10, func() {
		bank.Reset(1)
		bank.AddEdges(edges, 1)
	})
	if allocs > 8 {
		t.Fatalf("a Reset and refill allocates %.0f objects, want at most 8", allocs)
	}
}
