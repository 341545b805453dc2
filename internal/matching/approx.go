package matching

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// Offline approximate solvers. Algorithm 2 step 5 needs "a (1 - a3)
// approximation to Primal restricted to these constraints" — any offline
// matching approximation run on the union of sampled edges. The paper
// cites Duan–Pettie [13] and Ahn–Guha [2]; we substitute exact blossom
// (a3 = 0) below a size threshold and greedy + local augmentation above
// it (see DESIGN.md, substitution 2).

// OfflineConfig tunes the offline solver dispatch.
type OfflineConfig struct {
	// ExactLimit: run exact blossom when n <= ExactLimit (default 600).
	ExactLimit int
	// AugmentPasses: local-improvement passes for the large regime
	// (default 3).
	AugmentPasses int
}

func (c OfflineConfig) withDefaults() OfflineConfig {
	if c.ExactLimit == 0 {
		c.ExactLimit = 600
	}
	if c.AugmentPasses == 0 {
		c.AugmentPasses = 3
	}
	return c
}

// OfflineScratch holds the working buffers of the offline solve — the
// packed sort orders, the greedy and augmentation marks — so a caller
// that solves one union per round reuses them instead of allocating
// per call. The zero value is ready to use. A scratch serves one solve
// at a time: concurrent solvers each own one, and nothing here is
// shared at package level.
type OfflineScratch struct {
	byW    []wIdx // edges by weight only: AugmentOnePass's scan order
	greedy []wIdx // edges by (weight desc, index asc): Greedy's order
	used   []bool // per vertex
	inM    []bool // per edge
	match  []int  // per vertex
}

// RetainedWords reports the scratch's capacity in 64-bit words (a wIdx
// is 2 words; bool buffers round up to whole words).
func (s *OfflineScratch) RetainedWords() int {
	return 2*(cap(s.byW)+cap(s.greedy)) + (cap(s.used)+cap(s.inM)+7)/8 + cap(s.match)
}

// Offline computes a high-quality matching of g (b == 1 assumed; use
// OfflineB for capacities). Returns the matching and its weight.
func Offline(g *graph.Graph, cfg OfflineConfig) (*Matching, float64) {
	return new(OfflineScratch).offline(g, cfg.withDefaults())
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
	s.greedy = byWeightThenIndex(g, s.greedy)
	m := greedyBInOrder(g, s.greedy)
	return m, m.Weight(g)
}

// offline is Offline with resolved defaults. The greedy branch sorts
// the edges once, by weight only — the order AugmentOnePass scans —
// and derives Greedy's (weight desc, index asc) order from it by
// sorting each run of equal weights by index.
func (s *OfflineScratch) offline(g *graph.Graph, cfg OfflineConfig) (*Matching, float64) {
	if g.N() <= cfg.ExactLimit {
		return MaxWeightMatchingFloat(g, false)
	}
	s.byW = byWeight(g, s.byW)
	s.greedy = tiesByIndex(s.greedy, s.byW)
	s.used = resize(s.used, g.N())
	m := greedyInOrder(g, s.greedy, s.used)
	m = s.augment(g, m, cfg.AugmentPasses, s.byW)
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

// AugmentOnePass improves a matching by repeated single-edge and
// 2-augmentation moves: for each unmatched or improvable edge (u,v),
// adding it and dropping the (at most two) conflicting matched edges when
// that increases total weight. passes bounds the number of sweeps.
func AugmentOnePass(g *graph.Graph, m *Matching, passes int) *Matching {
	return new(OfflineScratch).augment(g, m, passes, byWeight(g, nil))
}

// augment is AugmentOnePass scanning a precomputed byWeight order.
func (s *OfflineScratch) augment(g *graph.Graph, m *Matching, passes int, order []wIdx) *Matching {
	s.match = resize(s.match, g.N()) // edge index matched at v, or -1
	match := s.match
	for i := range match {
		match[i] = -1
	}
	s.inM = resize(s.inM, g.M())
	inM := s.inM
	for _, idx := range m.EdgeIdx {
		e := g.Edge(idx)
		match[e.U] = idx
		match[e.V] = idx
		inM[idx] = true
	}
	for pass := 0; pass < passes; pass++ {
		improved := false
		for _, p := range order {
			idx := p.idx
			if inM[idx] {
				continue
			}
			e := g.Edge(idx)
			mu, mv := match[e.U], match[e.V]
			drop := 0.0
			if mu >= 0 {
				drop += g.Edge(mu).W
			}
			if mv >= 0 && mv != mu {
				drop += g.Edge(mv).W
			}
			if e.W > drop {
				// Perform the swap.
				if mu >= 0 {
					eu := g.Edge(mu)
					match[eu.U], match[eu.V] = -1, -1
					inM[mu] = false
				}
				if mv >= 0 && mv != mu {
					ev := g.Edge(mv)
					match[ev.U], match[ev.V] = -1, -1
					inM[mv] = false
				}
				match[e.U], match[e.V] = idx, idx
				inM[idx] = true
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	out := &Matching{}
	for idx, in := range inM {
		if in {
			out.EdgeIdx = append(out.EdgeIdx, idx)
		}
	}
	return out
}

// wIdx is one edge of a packed sort: its weight stored next to its
// index, so the comparator reads neither the graph nor an indirection.
type wIdx struct {
	w   float64
	idx int
}

// weightDesc is AugmentOnePass's comparator: heavier first, weight
// only. It reports "less" on exactly the pairs the historical
// sort.Slice comparator did, and pdqsort's permutation depends only on
// the comparison outcomes and the length, so byWeight reproduces that
// permutation tie for tie.
func weightDesc(a, b wIdx) int {
	switch {
	case a.w > b.w:
		return -1
	case a.w < b.w:
		return 1
	}
	return 0
}

func indexAsc(a, b wIdx) int { return cmp.Compare(a.idx, b.idx) }

// packEdges fills buf with g's (weight, index) pairs in edge order.
func packEdges(g *graph.Graph, buf []wIdx) []wIdx {
	buf = buf[:0]
	for i, e := range g.Edges() {
		buf = append(buf, wIdx{w: e.W, idx: i})
	}
	return buf
}

// byWeight returns g's edges sorted by weightDesc.
func byWeight(g *graph.Graph, buf []wIdx) []wIdx {
	buf = packEdges(g, buf)
	slices.SortFunc(buf, weightDesc)
	return buf
}

// byWeightThenIndex returns g's edges in (weight desc, index asc) order.
// The order is total, so every correct sort yields the same slice.
func byWeightThenIndex(g *graph.Graph, buf []wIdx) []wIdx {
	buf = packEdges(g, buf)
	slices.SortFunc(buf, func(a, b wIdx) int {
		if c := weightDesc(a, b); c != 0 {
			return c
		}
		return indexAsc(a, b)
	})
	return buf
}

// tiesByIndex copies a byWeight order into dst and sorts every run of
// equal weights by index: the (weight desc, index asc) order of
// byWeightThenIndex without a second full comparison sort.
func tiesByIndex(dst, sorted []wIdx) []wIdx {
	dst = append(dst[:0], sorted...)
	for lo := 0; lo < len(dst); {
		hi := lo + 1
		for hi < len(dst) && dst[hi].w == dst[lo].w {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(dst[lo:hi], indexAsc)
		}
		lo = hi
	}
	return dst
}

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
