// Package matching implements the matching algorithms the paper builds on
// or compares against:
//
//   - greedy maximal matching and maximal b-matching (the primitive inside
//     Lemma 20's per-level initial solutions),
//   - the iterative-filtering algorithm of Lattanzi, Moseley, Suri and
//     Vassilvitskii (SPAA 2011) — the paper's O(1)-approximation baseline,
//   - Hopcroft–Karp bipartite maximum cardinality matching,
//   - exact maximum-weight matching on general graphs via Galil's blossom
//     algorithm (O(n³)), used as the offline solver of Algorithm 2 step 5
//     and as ground truth in every experiment,
//   - an offline (1-ε)-style approximate solver that dispatches between
//     exact blossom and greedy depending on instance size (the stand-in
//     for Duan–Pettie [13] / Ahn–Guha [2]; see DESIGN.md substitutions).
package matching

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/stream"
)

// Matching is a set of edges of a host graph, by edge index, with
// multiplicities (for b-matching; multiplicity is 1 in ordinary
// matchings).
type Matching struct {
	EdgeIdx []int
	Mult    []int // parallel multiplicity per selected edge (nil = all 1)
}

// Weight returns the total weight of the matching in g (multiplicities
// included).
func (m *Matching) Weight(g *graph.Graph) float64 {
	t := 0.0
	for i, idx := range m.EdgeIdx {
		w := g.Edge(idx).W
		if m.Mult != nil {
			t += w * float64(m.Mult[i])
		} else {
			t += w
		}
	}
	return t
}

// Size returns the number of matched edges counting multiplicity.
func (m *Matching) Size() int {
	if m.Mult == nil {
		return len(m.EdgeIdx)
	}
	t := 0
	for _, c := range m.Mult {
		t += c
	}
	return t
}

// Validate checks degree feasibility: the matched degree of every vertex
// is at most b_v. Returns an error describing the first violation.
func (m *Matching) Validate(g *graph.Graph) error {
	deg := make([]int, g.N())
	for i, idx := range m.EdgeIdx {
		if idx < 0 || idx >= g.M() {
			return fmt.Errorf("matching: edge index %d out of range", idx)
		}
		c := 1
		if m.Mult != nil {
			c = m.Mult[i]
			if c < 1 {
				return fmt.Errorf("matching: non-positive multiplicity %d", c)
			}
		}
		e := g.Edge(idx)
		deg[e.U] += c
		deg[e.V] += c
	}
	for v := 0; v < g.N(); v++ {
		if deg[v] > g.B(v) {
			return fmt.Errorf("matching: vertex %d has matched degree %d > b=%d", v, deg[v], g.B(v))
		}
	}
	return nil
}

// ValidateStream checks degree feasibility against any Source in one
// metered pass and O(|M|) memory: matched indices are collected, their
// edges picked up during the sweep, and per-vertex degrees checked
// against the capacities. The streaming twin of Validate for instances
// that are never materialized.
func (m *Matching) ValidateStream(src stream.Source) error {
	mult := make(map[int]int, len(m.EdgeIdx))
	for i, idx := range m.EdgeIdx {
		if idx < 0 || idx >= src.Len() {
			return fmt.Errorf("matching: edge index %d out of range", idx)
		}
		c := 1
		if m.Mult != nil {
			c = m.Mult[i]
			if c < 1 {
				return fmt.Errorf("matching: non-positive multiplicity %d", c)
			}
		}
		mult[idx] += c
	}
	deg := make([]int, src.N())
	found := 0
	src.ForEach(func(idx int, e graph.Edge) bool {
		if c, ok := mult[idx]; ok {
			deg[e.U] += c
			deg[e.V] += c
			found++
		}
		return found < len(mult)
	})
	if found < len(mult) {
		return fmt.Errorf("matching: %d matched indices missing from the stream", len(mult)-found)
	}
	for v := 0; v < src.N(); v++ {
		if b := src.B(v); deg[v] > b {
			return fmt.Errorf("matching: vertex %d has matched degree %d > b=%d", v, deg[v], b)
		}
	}
	return nil
}

// IsMaximal reports whether no edge of g can be added to the matching
// without violating capacities (i.e. the matching is maximal for the
// uncapacitated b-matching problem).
func (m *Matching) IsMaximal(g *graph.Graph) bool {
	deg := make([]int, g.N())
	for i, idx := range m.EdgeIdx {
		c := 1
		if m.Mult != nil {
			c = m.Mult[i]
		}
		e := g.Edge(idx)
		deg[e.U] += c
		deg[e.V] += c
	}
	for _, e := range g.Edges() {
		if deg[e.U] < g.B(int(e.U)) && deg[e.V] < g.B(int(e.V)) {
			return false
		}
	}
	return true
}

// Greedy computes a maximal matching by scanning edges in descending
// weight order, taking an edge whenever both endpoints are free. For
// weighted graphs this is the classic 1/2-approximation.
func Greedy(g *graph.Graph) *Matching {
	order, _ := byWeightThenIndex(g, nil, nil)
	return greedyInOrder(g, order, make([]bool, g.N()))
}

// greedyInOrder is Greedy's scan over a precomputed (weight desc, index
// asc) order; used is a zeroed per-vertex buffer.
func greedyInOrder(g *graph.Graph, order []wIdx, used []bool) *Matching {
	var out Matching
	for _, p := range order {
		e := g.Edge(p.idx)
		if !used[e.U] && !used[e.V] {
			used[e.U], used[e.V] = true, true
			out.EdgeIdx = append(out.EdgeIdx, p.idx)
		}
	}
	return &out
}

// greedyBInOrder computes a maximal uncapacitated b-matching: edges are
// scanned in a precomputed (weight desc, index asc) order and each chosen
// edge's multiplicity is raised to saturate an endpoint (min of the two
// residual capacities), exactly the device of Lemma 20.
func greedyBInOrder(g *graph.Graph, order []wIdx) *Matching {
	resid := make([]int, g.N())
	for v := range resid {
		resid[v] = g.B(v)
	}
	out := Matching{Mult: []int{}}
	for _, p := range order {
		idx := p.idx
		e := g.Edge(idx)
		c := resid[e.U]
		if resid[e.V] < c {
			c = resid[e.V]
		}
		if c > 0 {
			resid[e.U] -= c
			resid[e.V] -= c
			out.EdgeIdx = append(out.EdgeIdx, idx)
			out.Mult = append(out.Mult, c)
		}
	}
	return &out
}
