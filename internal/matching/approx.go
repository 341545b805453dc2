package matching

import (
	"math"
	"slices"

	"repro/internal/graph"
)

// Offline approximate solvers. Algorithm 2 step 5 needs "a (1 - a3)
// approximation to Primal restricted to these constraints" — any offline
// matching approximation run on the union of sampled edges. The paper
// cites Duan–Pettie [13] and Ahn–Guha [2]; we substitute exact blossom
// (a3 = 0) below a size threshold and greedy above it (see DESIGN.md,
// substitution 2).

// OfflineConfig tunes the offline solver dispatch.
type OfflineConfig struct {
	// ExactLimit: run exact blossom when n <= ExactLimit (default 600).
	ExactLimit int
}

func (c OfflineConfig) withDefaults() OfflineConfig {
	if c.ExactLimit == 0 {
		c.ExactLimit = 600
	}
	return c
}

// OfflineScratch holds the working buffers of the offline solve — the
// packed greedy order, the radix sort's second buffer and the greedy
// marks — so a caller that solves one union per round reuses them
// instead of allocating per call. The zero value is ready to use. A
// scratch serves one solve at a time: concurrent solvers each own one,
// and nothing here is shared at package level.
type OfflineScratch struct {
	greedy []wIdx // edges by (weight desc, index asc): Greedy's order
	tmp    []wIdx // the radix passes' other buffer
	used   []bool // per vertex
}

// OfflineB computes a high-quality uncapacitated b-matching. Small
// instances are solved exactly by vertex splitting; large ones greedily.
func OfflineB(g *graph.Graph, cfg OfflineConfig) (*Matching, float64) {
	return new(OfflineScratch).OfflineB(g, cfg)
}

// OfflineB is the package-level OfflineB drawing its buffers from s.
// The result is identical; the returned Matching is freshly allocated
// and never aliases the scratch.
func (s *OfflineScratch) OfflineB(g *graph.Graph, cfg OfflineConfig) (*Matching, float64) {
	cfg = cfg.withDefaults()
	if allUnitB(g) {
		return s.offline(g, cfg)
	}
	if g.TotalB() <= cfg.ExactLimit {
		return exactBBySplitting(g)
	}
	s.greedy, s.tmp = byWeightThenIndex(g, s.greedy, s.tmp)
	m := greedyBInOrder(g, s.greedy)
	return m, m.Weight(g)
}

// offline solves a unit-capacity instance with resolved defaults: exact
// blossom up to cfg.ExactLimit vertices, else Greedy's matching in index order: no single-edge swap can improve it
// (DESIGN.md §17), so a local-augmentation pass after it would be a
// no-op.
func (s *OfflineScratch) offline(g *graph.Graph, cfg OfflineConfig) (*Matching, float64) {
	if g.N() <= cfg.ExactLimit {
		return MaxWeightMatchingFloat(g, false)
	}
	s.greedy, s.tmp = byWeightThenIndex(g, s.greedy, s.tmp)
	s.used = resize(s.used, g.N())
	m := greedyInOrder(g, s.greedy, s.used)
	slices.Sort(m.EdgeIdx)
	return m, m.Weight(g)
}

func allUnitB(g *graph.Graph) bool {
	for v := 0; v < g.N(); v++ {
		if g.B(v) != 1 {
			return false
		}
	}
	return true
}

// exactBBySplitting solves maximum-weight uncapacitated b-matching
// exactly by replacing each vertex v with b_v copies and each edge {u,v}
// with min(b_u,b_v) highest-multiplicity-capable parallel slots between
// distinct copy pairs. Because the b-matching is uncapacitated, an edge
// may be used up to min(b_u, b_v) times; copy-to-copy slots realize
// exactly that.
func exactBBySplitting(g *graph.Graph) (*Matching, float64) {
	offset := make([]int, g.N()+1)
	for v := 0; v < g.N(); v++ {
		offset[v+1] = offset[v] + g.B(v)
	}
	total := offset[g.N()]
	var edges []WEdge
	scale := int64(1 << 20)
	for _, e := range g.Edges() {
		bu, bv := g.B(int(e.U)), g.B(int(e.V))
		// Connect copy i of u to every copy of v (complete bipartite
		// between the copy sets realizes any multiplicity up to c).
		for i := 0; i < bu; i++ {
			for j := 0; j < bv; j++ {
				edges = append(edges, WEdge{
					U: int32(offset[e.U] + i),
					V: int32(offset[e.V] + j),
					W: int64(e.W * float64(scale)),
				})
			}
		}
	}
	mate, _ := MaxWeightMatching(total, edges, false)
	// Map copies back to original vertices and count multiplicities.
	owner := make([]int32, total)
	for v := 0; v < g.N(); v++ {
		for i := offset[v]; i < offset[v+1]; i++ {
			owner[i] = int32(v)
		}
	}
	mult := make(map[uint64]int)
	for c := 0; c < total; c++ {
		d := mate[c]
		if d >= 0 && int32(c) < d {
			mult[graph.KeyOf(owner[c], owner[d])]++
		}
	}
	// Choose, per pair, the heaviest original edge index.
	bestIdx := make(map[uint64]int)
	for i, e := range g.Edges() {
		k := e.Key()
		if j, ok := bestIdx[k]; !ok || g.Edge(j).W < e.W {
			bestIdx[k] = i
		}
	}
	out := Matching{Mult: []int{}}
	w := 0.0
	keys := make([]uint64, 0, len(mult))
	for k := range mult {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		idx := bestIdx[k]
		out.EdgeIdx = append(out.EdgeIdx, idx)
		out.Mult = append(out.Mult, mult[k])
		w += g.Edge(idx).W * float64(mult[k])
	}
	return &out, w
}

// wIdx is one edge of a packed sort: its weight stored next to its
// index, so the sort reads neither the graph nor an indirection.
type wIdx struct {
	w   float64
	idx int
}

// byWeightThenIndex returns g's edges in (weight desc, index asc) order
// in buf, with tmp as the radix passes' other buffer; it hands both
// back for reuse. Graph weights are positive and finite, so their IEEE
// bits order them, and the complemented bits order them heaviest
// first. The pairs start in index order and every LSD pass is stable,
// so equal weights keep ascending indices: the order is the total one,
// which every correct sort yields. A byte position where all keys agree
// is skipped.
func byWeightThenIndex(g *graph.Graph, buf, tmp []wIdx) ([]wIdx, []wIdx) {
	buf = slices.Grow(buf[:0], g.M())
	for i, e := range g.Edges() {
		buf = append(buf, wIdx{w: e.W, idx: i})
	}
	if len(buf) < 2 {
		return buf, tmp
	}
	tmp = slices.Grow(tmp[:0], len(buf))[:len(buf)]
	var count [8][256]int
	for _, p := range buf {
		k := descKey(p.w)
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	first := descKey(buf[0].w)
	for d := range count {
		c := &count[d]
		if c[byte(first>>(8*d))] == len(buf) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, p := range buf {
			b := byte(descKey(p.w) >> (8 * d))
			tmp[c[b]] = p
			c[b]++
		}
		buf, tmp = tmp, buf
	}
	return buf, tmp
}

// descKey maps a positive finite weight to a key that ascends as the
// weight descends.
func descKey(w float64) uint64 { return ^math.Float64bits(w) }

// resize returns a zeroed length-n buffer, reusing b's backing when it
// is large enough.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}
