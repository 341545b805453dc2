package sketch

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/unionfind"
	"repro/internal/xrand"
)

// AGM vertex-incidence sketches (footnote 1 of the paper). For vertex v
// the implicit vector x_v is indexed by unordered vertex pairs; for each
// incident edge {u,v}, x_v has entry +1 at Key(u,v) if v is the smaller
// endpoint and -1 otherwise. Summing x_v over a vertex set S cancels the
// entries of edges internal to S, leaving exactly the edges crossing the
// cut (S, V\S); an ℓ0-sample of the sum is therefore a uniform-ish sample
// of the cut edges — "we then sample an edge across that cut (if one
// exists, or determine that no such edge exists) with high probability".

// IncidenceSpec fixes the shared randomness for a bank of vertex
// sketches: `reps` independent ℓ0 specs, one consumed per adaptive use
// (e.g. per Boruvka round of spanning-forest extraction).
type IncidenceSpec struct {
	n     int
	reps  int
	specs []*L0Spec
}

// NewIncidenceSpec creates a spec for graphs on n < 2^29 vertices.
// reps is the number of adaptive uses supported; s and rows size the
// underlying s-sparse decoders.
func NewIncidenceSpec(r *xrand.RNG, n, reps, s, rows int) *IncidenceSpec {
	if n >= 1<<29 {
		panic("sketch: incidence sketches require n < 2^29")
	}
	if reps < 1 {
		reps = 1
	}
	universeLog := 2*log2ceil(n) + 1
	spec := &IncidenceSpec{n: n, reps: reps}
	for i := 0; i < reps; i++ {
		spec.specs = append(spec.specs, NewL0Spec(r.Split(uint64(i)+0x100), universeLog, s, rows))
	}
	return spec
}

// SpecAt returns the ℓ0 spec of repetition r (shared randomness for
// distributed constructions that build vertex sketches remotely, e.g.
// the MapReduce pipeline of Section 4.2).
func (spec *IncidenceSpec) SpecAt(r int) *L0Spec { return spec.specs[r] }

func log2ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// Bank holds one sketch per (vertex, repetition).
type Bank struct {
	spec *IncidenceSpec
	cols [][]*L0 // [vertex][rep]
}

// NewBank assembles a bank from per-vertex columns: cols[v] holds vertex
// v's samplers, one per repetition, each built from SpecAt (the
// per-vertex reducers of the MapReduce pipeline of Section 4.2). A nil
// column, the column of a vertex with no incident edge, gets zeroed
// samplers. The bank keeps cols and the samplers in it.
func (spec *IncidenceSpec) NewBank(cols [][]*L0) *Bank {
	if len(cols) != spec.n {
		panic("sketch: a bank needs one column per vertex")
	}
	for v, col := range cols {
		if col == nil {
			col = make([]*L0, spec.reps)
			for r := range col {
				col[r] = spec.specs[r].NewL0()
			}
			cols[v] = col
		}
		if len(col) != spec.reps {
			panic("sketch: a bank column needs one sampler per repetition")
		}
	}
	return &Bank{spec: spec, cols: cols}
}

// MergeCut clones and merges the sketches of the vertex set at the given
// repetition; an ℓ0-sample of the result is an edge crossing the cut.
func (b *Bank) MergeCut(rep int, set []int) *L0 {
	if len(set) == 0 {
		panic("sketch: empty set")
	}
	acc := b.cols[set[0]][rep].Clone()
	for _, v := range set[1:] {
		acc.Merge(b.cols[v][rep])
	}
	return acc
}

// SampleCutEdge samples an edge crossing the cut (set, complement) using
// repetition rep. ok=false means the cut is (whp) empty or decoding
// failed.
func (b *Bank) SampleCutEdge(rep int, set []int) (u, v int32, ok bool) {
	key, _, sok := b.MergeCut(rep, set).Sample()
	if !sok {
		return 0, 0, false
	}
	u, v = graph.UnKey(key)
	return u, v, true
}

// SpanningForest extracts a spanning forest using Boruvka rounds; round i
// consumes repetition i of the bank (each repetition is used exactly once,
// preserving independence). It returns the forest edges and the final
// union-find. An error is returned if the bank has too few repetitions to
// finish (needs about log2(n) + 2).
func (b *Bank) SpanningForest() ([]graph.Edge, *unionfind.UF, error) {
	n := b.spec.n
	uf := unionfind.New(n)
	var forest []graph.Edge
	for rep := 0; rep < b.spec.reps; rep++ {
		if uf.Components() == 1 {
			return forest, uf, nil
		}
		comps := uf.Sets()
		merged := false
		type pick struct{ u, v int32 }
		var picks []pick
		// Walk components in sorted-representative order: when two
		// components sample edges whose unions conflict, which union
		// wins (and which edge joins the forest) depends on this order.
		reps := make([]int, 0, len(comps))
		//lint:ordered key collection, sorted immediately below
		for r := range comps {
			reps = append(reps, r)
		}
		sort.Ints(reps)
		for _, r := range reps {
			if u, v, ok := b.SampleCutEdge(rep, comps[r]); ok {
				picks = append(picks, pick{u, v})
			}
		}
		for _, p := range picks {
			if uf.Union(int(p.u), int(p.v)) {
				forest = append(forest, graph.Edge{U: p.u, V: p.v, W: 1})
				merged = true
			}
		}
		if !merged {
			// No component found an outgoing edge: remaining components
			// are (whp) genuinely isolated — done.
			return forest, uf, nil
		}
	}
	// Ran out of repetitions: check whether we actually finished.
	done := true
	//lint:ordered existence check: "any component still has a cut edge" is order-independent
	for _, members := range uf.Sets() {
		if u, v, ok := b.SampleCutEdge(b.spec.reps-1, members); ok && !uf.Same(int(u), int(v)) {
			done = false
			break
		}
	}
	if done {
		return forest, uf, nil
	}
	return forest, uf, fmt.Errorf("sketch: spanning forest incomplete after %d repetitions", b.spec.reps)
}
