package mapreduce

import (
	"repro/internal/graph"
	"repro/internal/sketch"
	"repro/internal/unionfind"
	"repro/internal/xrand"
)

// The Section 4.2 pipeline: per-vertex ℓ0 sketches in one MapReduce
// round, central post-processing in a second.
//
//	1st round mapper : edge (u,v) -> (u, edge), (v, edge)
//	1st round reducer: vertex u's incident edges -> incidence sketches
//	2nd round mapper : (u, S_u) -> (1, S_u)
//	2nd round reducer: all sketches on one machine -> spanning forest
//
// The sketch randomness R is the shared IncidenceSpec (generated once
// from the seed, as the paper's mappers generate shared randomness per
// edge; a spec-level seed is the standard equivalent).

// ccEdge carries one edge through the shuffle.
type ccEdge struct{ u, v int32 }

// ccSketch carries one vertex's sketch bank row through the shuffle.
type ccSketch struct {
	vertex int32
	rows   []*sketch.L0
}

// ConnectedComponentsMR computes connected components with 2 MapReduce
// rounds of sketching plus central post-processing, returning the
// union-find over vertices and the cluster stats.
func ConnectedComponentsMR(c *Cluster, g *graph.Graph, seed uint64) (*unionfind.UF, Stats) {
	n := g.N()
	reps := log2ceil(n) + 3
	spec := sketch.NewIncidenceSpec(xrand.New(seed), n, reps, 12, 8)

	// Round 1: vertex-keyed edges -> per-vertex sketches.
	input := make([]KV, 0, 2*g.M())
	for _, e := range g.Edges() {
		input = append(input, KV{Key: uint64(e.U), Value: ccEdge{e.U, e.V}})
		input = append(input, KV{Key: uint64(e.V), Value: ccEdge{e.U, e.V}})
	}
	mapper := func(in KV, emit func(KV)) { emit(in) }
	reducer := func(key uint64, values []any, emit func(KV)) {
		v := int32(key)
		rows := make([]*sketch.L0, reps)
		for r := 0; r < reps; r++ {
			rows[r] = spec.SpecAt(r).NewL0()
		}
		for _, val := range values {
			e := val.(ccEdge)
			keyID := graph.KeyOf(e.u, e.v)
			sign := int64(1)
			lo := e.u
			if e.v < e.u {
				lo = e.v
			}
			if v != lo {
				sign = -1
			}
			sketch.UpdateRows(rows, keyID, sign)
		}
		emit(KV{Key: uint64(v), Value: ccSketch{vertex: v, rows: rows}})
	}
	sketches := c.Run(input, mapper, reducer)

	// Round 2: all sketches to a single machine.
	collectMapper := func(in KV, emit func(KV)) { emit(KV{Key: 1, Value: in.Value}) }
	var uf *unionfind.UF
	collectReducer := func(_ uint64, values []any, _ func(KV)) {
		// A vertex with no edge sent no row; NewBank gives its nil
		// column zeroed sketches.
		cols := make([][]*sketch.L0, n)
		for _, val := range values {
			cs := val.(ccSketch)
			cols[cs.vertex] = cs.rows
		}
		bank := spec.NewBank(cols)
		// Boruvka over merged component sketches, one repetition per
		// round. Running out of repetitions leaves the components found
		// so far, so the error is dropped.
		_, uf, _ = bank.SpanningForest()
	}
	c.Run(sketches, collectMapper, collectReducer)
	return uf, c.Stats()
}

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
