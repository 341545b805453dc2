// Package graph provides the weighted undirected graph representation and
// synthetic workload generators used by every layer of the reproduction:
// the dual-primal solver, the sparsifiers, the sketching substrate and the
// benchmark harness.
//
// Graphs are node-indexed 0..N-1 with float64 edge weights and integer
// per-vertex capacities b (all 1 for standard matching). Parallel edges are
// permitted (the sparsifier sums them); self loops are rejected because no
// matching LP in the paper admits them.
package graph

import (
	"fmt"
	"math"
)

// Edge is an undirected weighted edge between vertices U and V.
type Edge struct {
	U, V int32
	W    float64
}

// Key returns a canonical uint64 identifier for the unordered pair {U,V}.
// Parallel edges share a key; callers needing per-copy identity should
// combine Key with the edge index.
func (e Edge) Key() uint64 {
	a, b := e.U, e.V
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// KeyOf returns the canonical pair key for vertices u, v.
func KeyOf(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// UnKey splits a pair key back into its two endpoints (u <= v).
func UnKey(k uint64) (u, v int32) {
	return int32(k >> 32), int32(k & 0xffffffff)
}

// Graph is a weighted undirected multigraph with vertex capacities.
type Graph struct {
	n     int
	edges []Edge
	b     []int // vertex capacities; nil means all ones

	adjOnce bool
	adjHead []int32 // head of per-vertex linked list into adjNext
	adjNext []int32 // next edge-slot in the list; two slots per edge
}

// New returns an empty graph on n vertices with unit capacities.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges (counting parallel copies).
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the internal edge slice. Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// AddEdge appends an undirected edge {u,v} with weight w. Self loops and
// non-positive weights are rejected with an error, matching the paper's
// assumption w_ij >= 1 after normalization (any positive weight is fine
// before normalization).
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u == v {
		return fmt.Errorf("graph: self loop on vertex %d", u)
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
		return fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, v, w)
	}
	g.edges = append(g.edges, Edge{U: int32(u), V: int32(v), W: w})
	g.adjOnce = false
	return nil
}

// MustAddEdge is AddEdge that panics on error; for generators and tests.
func (g *Graph) MustAddEdge(u, v int, w float64) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// Clear empties the graph in place, keeping the vertex count and every
// backing allocation: the edge list truncates, capacities return to all
// ones, and the lazy adjacency is invalidated. A cleared graph is
// indistinguishable from New(g.N()); callers that rebuild a transient
// subgraph every round reuse one Graph instead of allocating one.
func (g *Graph) Clear() {
	g.edges = g.edges[:0]
	if g.b != nil {
		for i := range g.b {
			g.b[i] = 1
		}
	}
	g.adjOnce = false
}

// SetB sets the capacity of vertex v to b (b >= 1).
func (g *Graph) SetB(v, b int) {
	if b < 1 {
		panic("graph: capacity must be >= 1")
	}
	if g.b == nil {
		g.b = make([]int, g.n)
		for i := range g.b {
			g.b[i] = 1
		}
	}
	g.b[v] = b
}

// B returns the capacity of vertex v.
func (g *Graph) B(v int) int {
	if g.b == nil {
		return 1
	}
	return g.b[v]
}

// TotalB returns B = sum of all capacities.
func (g *Graph) TotalB() int {
	if g.b == nil {
		return g.n
	}
	t := 0
	for _, b := range g.b {
		t += b
	}
	return t
}

// SetBOdd returns ||U||_b mod 2 == 1 for the vertex set U.
func (g *Graph) SetBOdd(set []int) bool {
	s := 0
	for _, v := range set {
		s += g.B(v)
	}
	return s%2 == 1
}

// SetBNorm returns ||U||_b for the vertex set U.
func (g *Graph) SetBNorm(set []int) int {
	s := 0
	for _, v := range set {
		s += g.B(v)
	}
	return s
}

// MaxWeight returns W* = max edge weight (0 for an edgeless graph).
func (g *Graph) MaxWeight() float64 {
	w := 0.0
	for _, e := range g.edges {
		if e.W > w {
			w = e.W
		}
	}
	return w
}

// buildAdj constructs the adjacency structure lazily.
func (g *Graph) buildAdj() {
	if g.adjOnce {
		return
	}
	if cap(g.adjHead) >= g.n {
		g.adjHead = g.adjHead[:g.n]
	} else {
		g.adjHead = make([]int32, g.n)
	}
	for i := range g.adjHead {
		g.adjHead[i] = -1
	}
	if cap(g.adjNext) >= 2*len(g.edges) {
		g.adjNext = g.adjNext[:2*len(g.edges)]
	} else {
		g.adjNext = make([]int32, 2*len(g.edges))
	}
	for i, e := range g.edges {
		s0, s1 := int32(2*i), int32(2*i+1)
		g.adjNext[s0] = g.adjHead[e.U]
		g.adjHead[e.U] = s0
		g.adjNext[s1] = g.adjHead[e.V]
		g.adjHead[e.V] = s1
	}
	g.adjOnce = true
}

// Neighbors calls f for every incident edge of v with the edge index and
// the opposite endpoint. Iteration order is reverse insertion order.
func (g *Graph) Neighbors(v int, f func(edgeIdx int, other int32)) {
	g.buildAdj()
	for s := g.adjHead[v]; s >= 0; s = g.adjNext[s] {
		idx := int(s) / 2
		e := g.edges[idx]
		if e.U == int32(v) {
			f(idx, e.V)
		} else {
			f(idx, e.U)
		}
	}
}

// ConnectedComponents returns a label per vertex (labels in [0, k)).
func (g *Graph) ConnectedComponents() (labels []int, count int) {
	labels = make([]int, g.n)
	for i := range labels {
		labels[i] = -1
	}
	count = 0
	var stack []int
	for s := 0; s < g.n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = count
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.Neighbors(v, func(_ int, o int32) {
				if labels[o] < 0 {
					labels[o] = count
					stack = append(stack, int(o))
				}
			})
		}
		count++
	}
	return labels, count
}
