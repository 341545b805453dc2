package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Determinism pinning for the retained oracle scratch: everything the
// scratch recycles must leave results bit-identical to cold allocation,
// including across calls of different shapes (the dangerous path — a
// stale entry from a larger previous call leaking into a smaller one).

// TestRowTableOrderMatchesSortedRowKeys pins the row table that
// replaced the per-call key sorts: across rebuilds of one table on
// supports of varying size, vertex range and level count (shrinking
// included), its sorted walk must visit exactly the keys sortedRowKeys
// returns for the same rows, in the same order; the per-vertex ranges,
// the dense lookup and the per-row sums must agree with a map-keyed
// recomputation, and the rows must stay in first-seen order.
func TestRowTableOrderMatchesSortedRowKeys(t *testing.T) {
	rng := xrand.New(99)
	var rt rowTable
	for trial, tc := range []struct{ edges, verts, levels int }{
		{17, 12, 6}, {120, 40, 6}, {3, 4, 2}, {64, 40, 9}, {0, 1, 3}, {9, 30, 1}, {200, 60, 4},
	} {
		var edges []supportEdge
		for len(edges) < tc.edges {
			u, v := int32(rng.Intn(tc.verts)), int32(rng.Intn(tc.verts))
			if u != v {
				edges = append(edges, supportEdge{u: u, v: v, k: rng.Intn(tc.levels), w: rng.Float64()})
			}
		}
		rt.build(edges, tc.levels, unitWHat)

		s := map[rowKey]float64{}
		var firstSeen []rowKey
		usC := 0.0
		for _, e := range edges {
			for _, rk := range [2]rowKey{{e.u, e.k}, {e.v, e.k}} {
				if _, ok := s[rk]; !ok {
					firstSeen = append(firstSeen, rk)
				}
				s[rk] += e.w
			}
			usC += unitWHat(e.k) * e.w
		}
		want := sortedRowKeys(s)
		if len(rt.sorted) != len(want) || len(rt.rows) != len(firstSeen) {
			t.Fatalf("trial %d: %d sorted / %d rows, want %d", trial, len(rt.sorted), len(rt.rows), len(want))
		}
		for i, ri := range rt.sorted {
			if rt.rows[ri] != want[i] {
				t.Fatalf("trial %d: sorted row %d = %v, want %v", trial, i, rt.rows[ri], want[i])
			}
		}
		for ri, rk := range rt.rows {
			if rk != firstSeen[ri] {
				t.Fatalf("trial %d: row %d = %v, first-seen order has %v", trial, ri, rk, firstSeen[ri])
			}
			if rt.lookup(rk.v, rk.k) != int32(ri) {
				t.Fatalf("trial %d: lookup%v = %d, want %d", trial, rk, rt.lookup(rk.v, rk.k), ri)
			}
			if math.Float64bits(rt.s[ri]) != math.Float64bits(s[rk]) {
				t.Fatalf("trial %d: s%v = %v, want %v", trial, rk, rt.s[ri], s[rk])
			}
		}
		for v := int32(0); v < int32(tc.verts); v++ {
			for _, ri := range rt.vertexRows(v) {
				if rt.rows[ri].v != v {
					t.Fatalf("trial %d: vertex %d range holds row %v", trial, v, rt.rows[ri])
				}
			}
		}
		if math.Float64bits(rt.usC) != math.Float64bits(usC) {
			t.Fatalf("trial %d: usC %v, want %v", trial, rt.usC, usC)
		}
	}
}

// answersEqual compares oracle answers entry-wise at the bit level
// (reused buffers differ from cold nil slices only in capacity, which
// reflect.DeepEqual would misreport as a difference for empty answers).
func answersEqual(a, b *oracleAnswer) bool {
	if len(a.xEntries) != len(b.xEntries) || len(a.zEntries) != len(b.zEntries) {
		return false
	}
	for i := range a.xEntries {
		x, y := a.xEntries[i], b.xEntries[i]
		if x.v != y.v || x.k != y.k || math.Float64bits(x.val) != math.Float64bits(y.val) {
			return false
		}
	}
	for i := range a.zEntries {
		x, y := a.zEntries[i], b.zEntries[i]
		if x.level != y.level || math.Float64bits(x.val) != math.Float64bits(y.val) ||
			len(x.members) != len(y.members) {
			return false
		}
		for j := range x.members {
			if x.members[j] != y.members[j] {
				return false
			}
		}
	}
	return true
}

// TestMicroOracleScratchReuseBitIdentical drives the micro oracle
// through heterogeneous inputs — different graphs, levels, and case
// branches — twice each: cold (fresh scratch) and through one shared
// scratch and answer containers. Every pair must agree bit-for-bit.
func TestMicroOracleScratchReuseBitIdentical(t *testing.T) {
	sc := newOracleScratch()
	var dst oracleAnswer
	cases := []struct {
		g         *graph.Graph
		level     int
		rho, beta float64
	}{
		{graph.GNM(12, 40, graph.WeightConfig{Mode: graph.UnitWeights}, 5), 0, 1e-6, 1e9},
		{graph.TriangleChain(3), 2, 0.5, 4},
		{graph.GNM(30, 90, graph.WeightConfig{Mode: graph.UnitWeights}, 7), 1, 0.05, 2},
		{graph.TriangleChain(1), 0, 1, 10},
		{graph.GNM(8, 12, graph.WeightConfig{Mode: graph.UnitWeights}, 9), 0, 0.2, 1},
	}
	for ci, tc := range cases {
		in := microFromGraph(tc.g, tc.level, 1, nil, tc.rho, tc.beta, 0.25)
		cold := runMicroOracle(in)
		warm := runMicroOracleScratch(in, sc, &dst)
		if cold.matchingWitness != warm.matchingWitness {
			t.Fatalf("case %d: witness %v != %v", ci, warm.matchingWitness, cold.matchingWitness)
		}
		if math.Float64bits(cold.gamma) != math.Float64bits(warm.gamma) {
			t.Fatalf("case %d: gamma %v != %v", ci, warm.gamma, cold.gamma)
		}
		if !answersEqual(&cold.answer, &warm.answer) {
			t.Fatalf("case %d: scratch-reuse answer differs from cold answer", ci)
		}
	}
}

// TestMiniOracleScratchReuseBitIdentical runs the full inner loop —
// packing iterations, ϱ binary search, answer averaging — with a shared
// scratch across supports of different shapes and checks each run
// against a cold (fresh-scratch) run.
func TestMiniOracleScratchReuseBitIdentical(t *testing.T) {
	prof := Practical(0.25)
	bOf := func(int) int { return 1 }
	sc := newOracleScratch()
	graphs := []*graph.Graph{
		graph.GNM(20, 60, graph.WeightConfig{Mode: graph.UnitWeights}, 11),
		graph.TriangleChain(4),
		graph.GNM(8, 10, graph.WeightConfig{Mode: graph.UnitWeights}, 13),
	}
	for gi, g := range graphs {
		var edges []supportEdge
		for i, e := range g.Edges() {
			edges = append(edges, supportEdge{u: e.U, v: e.V, k: i % 2, w: 1, origIdx: i})
		}
		for _, beta := range []float64{0.5, 4, 50} {
			cold := runMiniOracle(edges, beta, 0.25, prof, bOf, unitWHat, 2, 7, newOracleScratch())
			warm := runMiniOracle(edges, beta, 0.25, prof, bOf, unitWHat, 2, 7, sc)
			if cold.matchingWitness != warm.matchingWitness ||
				cold.microCalls != warm.microCalls || cold.packIters != warm.packIters {
				t.Fatalf("graph %d beta %v: trajectory differs: cold={w:%v micro:%d pack:%d} warm={w:%v micro:%d pack:%d}",
					gi, beta, cold.matchingWitness, cold.microCalls, cold.packIters,
					warm.matchingWitness, warm.microCalls, warm.packIters)
			}
			if !answersEqual(&cold.answer, &warm.answer) {
				t.Fatalf("graph %d beta %v: scratch-reuse answer differs from cold answer", gi, beta)
			}
		}
	}
}
