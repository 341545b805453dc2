package sketch

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func buildBank(t *testing.T, g *graph.Graph, seed uint64) *Bank {
	t.Helper()
	spec := NewIncidenceSpec(xrand.New(seed), g.N(), log2ceil(g.N())+3, 12, 8)
	bank := newBank(spec)
	for _, e := range g.Edges() {
		bank.AddEdge(e.U, e.V)
	}
	return bank
}

// ringEdges returns a ring over n vertices plus a chord from every third
// vertex to the opposite side.
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

// columnsOf builds each vertex's column as the MapReduce reducers do,
// from its incident edges through UpdateRows, on workers goroutines that
// take the vertices round robin. A vertex with no edge keeps a nil
// column.
func columnsOf(spec *IncidenceSpec, edges []graph.Edge, workers int) [][]*L0 {
	incident := make([][]graph.Edge, spec.n)
	for _, e := range edges {
		incident[e.U] = append(incident[e.U], e)
		incident[e.V] = append(incident[e.V], e)
	}
	cols := make([][]*L0, spec.n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := w; v < spec.n; v += workers {
				if len(incident[v]) == 0 {
					continue
				}
				col := make([]*L0, spec.reps)
				for r := range col {
					col[r] = spec.SpecAt(r).NewL0()
				}
				for _, e := range incident[v] {
					sign := int64(1)
					if int32(v) != min(e.U, e.V) {
						sign = -1
					}
					UpdateRows(col, graph.KeyOf(e.U, e.V), sign)
				}
				cols[v] = col
			}
		}()
	}
	wg.Wait()
	return cols
}

// TestBankParallelBitIdentical is the sketch layer's half of the
// pipeline's determinism contract: columns built independently, on
// concurrent goroutines as the MapReduce reducers build them, and
// assembled by NewBank must equal a bank fed edge by edge, for any
// worker count. Seven of the vertices have no edge, so NewBank's zeroed
// columns are compared too.
func TestBankParallelBitIdentical(t *testing.T) {
	const n = 97
	spec := NewIncidenceSpec(xrand.New(7), n, 9, 12, 8)
	edges := ringEdges(n - 7)

	seq := newBank(spec)
	for _, e := range edges {
		seq.AddEdge(e.U, e.V)
	}
	for _, workers := range []int{1, 2, 4} {
		par := spec.NewBank(columnsOf(spec, edges, workers))
		if !reflect.DeepEqual(seq.cols, par.cols) {
			t.Fatalf("workers=%d: assembled bank differs from the edge-fed bank", workers)
		}
	}
}

// TestBankParallelSpanningForest runs Boruvka over a bank assembled
// from concurrently built columns: a path over 48 of 64 vertices, whose
// other 16 vertices have nil columns and stay singletons.
func TestBankParallelSpanningForest(t *testing.T) {
	const n, pathLen = 64, 48
	spec := NewIncidenceSpec(xrand.New(11), n, 10, 12, 8)
	edges := make([]graph.Edge, 0, pathLen-1)
	for v := 0; v+1 < pathLen; v++ {
		edges = append(edges, graph.Edge{U: int32(v), V: int32(v + 1), W: 1})
	}
	bank := spec.NewBank(columnsOf(spec, edges, 4))
	forest, uf, err := bank.SpanningForest()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + n - pathLen; uf.Components() != want {
		t.Fatalf("%d components, want %d", uf.Components(), want)
	}
	if len(forest) != pathLen-1 {
		t.Fatalf("forest has %d edges, want %d", len(forest), pathLen-1)
	}
}

// TestBankBuildArenaAllocsFlat bounds what NewBank allocates when every
// column is given: at most the Bank itself, so the MapReduce collect
// builds no sampler it then discards. (The name dates from when rebuilt
// banks drew their samplers from a pool.)
func TestBankBuildArenaAllocsFlat(t *testing.T) {
	const n = 96
	spec := NewIncidenceSpec(xrand.New(31), n, 6, 12, 8)
	cols := columnsOf(spec, ringEdges(n), 1)
	allocs := testing.AllocsPerRun(10, func() { spec.NewBank(cols) })
	if allocs > 1 {
		t.Fatalf("NewBank over %d given columns allocates %.0f objects, want at most 1", n, allocs)
	}
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
	bank := newBank(spec)
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
