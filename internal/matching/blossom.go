package matching

import (
	"math"

	"repro/internal/graph"
)

// Exact maximum-weight matching on general (nonbipartite) graphs.
//
// This is Galil's O(n³) primal-dual blossom algorithm in the array-based
// formulation popularized by Van Rantwijk's reference implementation: a
// linear-programming method that maintains vertex duals, blossom duals and
// a laminar family of blossoms (the same odd-set structure as Theorem 22
// of the paper), growing alternating trees and augmenting along tight
// edges. Weights are int64; all arithmetic is exact (weights are doubled
// internally so duals stay integral).
//
// It serves two roles in the reproduction: ground truth for every
// approximation experiment, and the offline solver run on the union of
// deferred-sparsifier samples in Algorithm 2 step 5.

// WEdge is an integer-weighted edge for the exact solver.
type WEdge struct {
	U, V int32
	W    int64
}

type blossomState struct {
	n       int // vertices
	edges   []WEdge
	nedge   int
	endpt   []int32   // endpt[p] = vertex of endpoint p; p = 2k or 2k+1
	nbend   [][]int32 // nbend[v] = endpoint indices p with endpt[p^1] = v
	maxCard bool

	mate   []int32 // mate[v] = endpoint p matched to v, or -1
	label  []int8  // per (possibly blossom) id: 0 free, 1 S, 2 T (+4 marks in scan)
	lblend []int32 // endpoint through which the label was assigned, or -1
	inbl   []int32 // inbl[v] = top-level blossom containing v
	blpar  []int32 // parent blossom, or -1
	blchld [][]int32
	blbase []int32
	blendp [][]int32
	best   []int32   // least-slack edge to an S-blossom, per id, or -1
	blbest [][]int32 // per blossom: list of least-slack edges to other S-blossoms
	unused []int32   // free blossom ids
	dual   []int64
	allow  []bool
	queue  []int32
}

// MaxWeightMatching computes a maximum-weight matching of the given
// edges over vertices 0..n-1. If maxCardinality is true, it computes a
// maximum-weight matching among maximum-cardinality matchings. It returns
// mate (mate[v] = partner vertex or -1) and the total weight.
func MaxWeightMatching(n int, edges []WEdge, maxCardinality bool) ([]int32, int64) {
	mateOut := make([]int32, n)
	for i := range mateOut {
		mateOut[i] = -1
	}
	if len(edges) == 0 || n == 0 {
		return mateOut, 0
	}
	// Double weights so that delta arithmetic stays integral.
	st := &blossomState{n: n, maxCard: maxCardinality}
	st.edges = make([]WEdge, len(edges))
	var maxw int64
	for i, e := range edges {
		if e.U == e.V {
			panic("matching: self loop in MaxWeightMatching")
		}
		st.edges[i] = WEdge{U: e.U, V: e.V, W: 2 * e.W}
		if 2*e.W > maxw {
			maxw = 2 * e.W
		}
	}
	st.nedge = len(st.edges)
	st.endpt = make([]int32, 2*st.nedge)
	st.nbend = make([][]int32, n)
	for k, e := range st.edges {
		st.endpt[2*k] = e.U
		st.endpt[2*k+1] = e.V
		st.nbend[e.U] = append(st.nbend[e.U], int32(2*k+1))
		st.nbend[e.V] = append(st.nbend[e.V], int32(2*k))
	}
	N2 := 2 * n
	st.mate = make([]int32, n)
	for i := range st.mate {
		st.mate[i] = -1
	}
	st.label = make([]int8, N2)
	st.lblend = make([]int32, N2)
	st.inbl = make([]int32, n)
	st.blpar = make([]int32, N2)
	st.blchld = make([][]int32, N2)
	st.blbase = make([]int32, N2)
	st.blendp = make([][]int32, N2)
	st.best = make([]int32, N2)
	st.blbest = make([][]int32, N2)
	st.dual = make([]int64, N2)
	st.allow = make([]bool, st.nedge)
	for v := 0; v < n; v++ {
		st.inbl[v] = int32(v)
		st.blbase[v] = int32(v)
		st.dual[v] = maxw
	}
	for b := n; b < N2; b++ {
		st.blbase[b] = -1
	}
	for i := range st.blpar {
		st.blpar[i] = -1
		st.lblend[i] = -1
		st.best[i] = -1
	}
	for b := N2 - 1; b >= n; b-- {
		st.unused = append(st.unused, int32(b))
	}

	st.run()

	var total int64
	for v := 0; v < n; v++ {
		if st.mate[v] >= 0 {
			mateOut[v] = st.endpt[st.mate[v]]
		}
	}
	seen := make([]bool, n)
	for v := 0; v < n; v++ {
		if mateOut[v] >= 0 && !seen[v] {
			seen[v] = true
			seen[mateOut[v]] = true
			// Find the matched edge weight (original, undoubled).
			p := st.mate[v]
			total += st.edges[p/2].W / 2
		}
	}
	return mateOut, total
}

// MaxWeightMatchingFloat solves with float64 weights by scaling to int64.
// scale controls the precision (default 1<<20 per unit when 0); results
// are exact for the scaled instance.
func MaxWeightMatchingFloat(g *graph.Graph, maxCardinality bool) (*Matching, float64) {
	maxW := g.MaxWeight()
	scale := 1.0
	if maxW > 0 {
		// Keep weights comfortably inside int64: 2*W*scale*n < 2^62.
		scale = math.Exp2(math.Floor(math.Log2((1 << 40) / (maxW + 1))))
		if scale < 1 {
			scale = 1
		}
	}
	edges := make([]WEdge, g.M())
	for i, e := range g.Edges() {
		edges[i] = WEdge{U: e.U, V: e.V, W: int64(math.Round(e.W * scale))}
	}
	mate, _ := MaxWeightMatching(g.N(), edges, maxCardinality)
	// Recover the selected edge set: for each matched pair pick the
	// heaviest edge between them, the first index among equal weights
	// (the solver works on the implicit simple graph). best[v] is the
	// pick for the pair whose smaller endpoint is v, stored as index+1 so
	// that the zeroed slice means "none yet".
	best := make([]int, g.N())
	for i, e := range g.Edges() {
		if mate[e.U] != e.V {
			continue
		}
		lo := min(e.U, e.V)
		if j := best[lo] - 1; j < 0 || g.Edge(j).W < e.W {
			best[lo] = i + 1
		}
	}
	var out Matching
	totalW := 0.0
	for v := 0; v < g.N(); v++ {
		u := mate[v]
		if u >= 0 && int32(v) < u {
			idx := best[v] - 1
			out.EdgeIdx = append(out.EdgeIdx, idx)
			totalW += g.Edge(idx).W
		}
	}
	return &out, totalW
}

func (st *blossomState) slack(k int32) int64 {
	e := st.edges[k]
	return st.dual[e.U] + st.dual[e.V] - e.W
}

// blossomLeaves appends the vertex leaves of blossom b to out.
func (st *blossomState) blossomLeaves(b int32, out []int32) []int32 {
	if int(b) < st.n {
		return append(out, b)
	}
	for _, c := range st.blchld[b] {
		out = st.blossomLeaves(c, out)
	}
	return out
}

// assignLabel labels the top-level blossom of w with t through endpoint p.
func (st *blossomState) assignLabel(w int32, t int8, p int32) {
	b := st.inbl[w]
	st.label[w] = t
	st.label[b] = t
	st.lblend[w] = p
	st.lblend[b] = p
	st.best[w] = -1
	st.best[b] = -1
	if t == 1 {
		st.queue = st.blossomLeaves(b, st.queue)
	} else if t == 2 {
		base := st.blbase[b]
		st.assignLabel(st.endpt[st.mate[base]], 1, st.mate[base]^1)
	}
}

// scanBlossom traces back from v and w to find a common ancestor base of
// the alternating paths, or -1 if an augmenting path was found instead.
func (st *blossomState) scanBlossom(v, w int32) int32 {
	var path []int32
	base := int32(-1)
	for v != -1 || w != -1 {
		b := st.inbl[v]
		if st.label[b]&4 != 0 {
			base = st.blbase[b]
			break
		}
		path = append(path, b)
		st.label[b] |= 4
		if st.lblend[b] == -1 {
			v = -1
		} else {
			v = st.endpt[st.lblend[b]]
			b = st.inbl[v]
			v = st.endpt[st.lblend[b]]
		}
		if w != -1 {
			v, w = w, v
		}
	}
	for _, b := range path {
		st.label[b] &^= 4
	}
	return base
}

// addBlossom creates a new blossom with the given base through edge k.
func (st *blossomState) addBlossom(base int32, k int32) {
	e := st.edges[k]
	v, w := e.U, e.V
	bb := st.inbl[base]
	bv := st.inbl[v]
	bw := st.inbl[w]
	b := st.unused[len(st.unused)-1]
	st.unused = st.unused[:len(st.unused)-1]
	st.blbase[b] = base
	st.blpar[b] = -1
	st.blpar[bb] = b
	var path, endps []int32
	for bv != bb {
		st.blpar[bv] = b
		path = append(path, bv)
		endps = append(endps, st.lblend[bv])
		v = st.endpt[st.lblend[bv]]
		bv = st.inbl[v]
	}
	path = append(path, bb)
	// reverse
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	for i, j := 0, len(endps)-1; i < j; i, j = i+1, j-1 {
		endps[i], endps[j] = endps[j], endps[i]
	}
	endps = append(endps, 2*k)
	for bw != bb {
		st.blpar[bw] = b
		path = append(path, bw)
		endps = append(endps, st.lblend[bw]^1)
		w = st.endpt[st.lblend[bw]]
		bw = st.inbl[w]
	}
	st.blchld[b] = path
	st.blendp[b] = endps
	st.label[b] = 1
	st.lblend[b] = st.lblend[bb]
	st.dual[b] = 0
	var leaves []int32
	leaves = st.blossomLeaves(b, leaves)
	for _, lv := range leaves {
		if st.label[st.inbl[lv]] == 2 {
			st.queue = append(st.queue, lv)
		}
		st.inbl[lv] = b
	}
	// Recompute least-slack edges to other S-blossoms.
	bestTo := make([]int32, 2*st.n)
	for i := range bestTo {
		bestTo[i] = -1
	}
	for _, pb := range path {
		var lists [][]int32
		if st.blbest[pb] == nil {
			var leafEdges []int32
			var lvs []int32
			lvs = st.blossomLeaves(pb, lvs)
			for _, lv := range lvs {
				for _, p := range st.nbend[lv] {
					leafEdges = append(leafEdges, p/2)
				}
			}
			lists = [][]int32{leafEdges}
		} else {
			lists = [][]int32{st.blbest[pb]}
		}
		for _, list := range lists {
			for _, ek := range list {
				ee := st.edges[ek]
				i, j := ee.U, ee.V
				if st.inbl[j] == b {
					i, j = j, i
				}
				bj := st.inbl[j]
				if bj != b && st.label[bj] == 1 &&
					(bestTo[bj] == -1 || st.slack(ek) < st.slack(bestTo[bj])) {
					bestTo[bj] = ek
				}
			}
		}
		st.blbest[pb] = nil
		st.best[pb] = -1
	}
	var bl []int32
	for _, ek := range bestTo {
		if ek != -1 {
			bl = append(bl, ek)
		}
	}
	st.blbest[b] = bl
	st.best[b] = -1
	for _, ek := range bl {
		if st.best[b] == -1 || st.slack(ek) < st.slack(st.best[b]) {
			st.best[b] = ek
		}
	}
}

// expandBlossom dissolves blossom b, relabeling its children. endstage
// marks the final cleanup (dual = 0 blossoms after the last augmentation).
func (st *blossomState) expandBlossom(b int32, endstage bool) {
	for _, s := range st.blchld[b] {
		st.blpar[s] = -1
		if int(s) < st.n {
			st.inbl[s] = s
		} else if endstage && st.dual[s] == 0 {
			st.expandBlossom(s, endstage)
		} else {
			var lvs []int32
			lvs = st.blossomLeaves(s, lvs)
			for _, lv := range lvs {
				st.inbl[lv] = s
			}
		}
	}
	if !endstage && st.label[b] == 2 {
		entryChild := st.inbl[st.endpt[st.lblend[b]^1]]
		j := 0
		for i, c := range st.blchld[b] {
			if c == entryChild {
				j = i
				break
			}
		}
		var jstep int
		var endptrick int32
		if j&1 != 0 {
			j -= len(st.blchld[b])
			jstep = 1
			endptrick = 0
		} else {
			jstep = -1
			endptrick = 1
		}
		p := st.lblend[b]
		childs := st.blchld[b]
		endps := st.blendp[b]
		idx := func(i int) int { // python-style negative indexing
			if i < 0 {
				return i + len(childs)
			}
			return i
		}
		for j != 0 {
			st.label[st.endpt[p^1]] = 0
			st.label[st.endpt[endps[idx(j-int(endptrick))]^endptrick^1]] = 0
			st.assignLabel(st.endpt[p^1], 2, p)
			st.allow[endps[idx(j-int(endptrick))]/2] = true
			j += jstep
			p = endps[idx(j-int(endptrick))] ^ endptrick
			st.allow[p/2] = true
			j += jstep
		}
		bv := childs[idx(j)]
		st.label[st.endpt[p^1]] = 2
		st.label[bv] = 2
		st.lblend[st.endpt[p^1]] = p
		st.lblend[bv] = p
		st.best[bv] = -1
		j += jstep
		for childs[idx(j)] != entryChild {
			bv = childs[idx(j)]
			if st.label[bv] == 1 {
				j += jstep
				continue
			}
			var lvs []int32
			lvs = st.blossomLeaves(bv, lvs)
			var lab int32 = -1
			for _, lv := range lvs {
				if st.label[lv] != 0 {
					lab = lv
					break
				}
			}
			if lab != -1 {
				st.label[lab] = 0
				st.label[st.endpt[st.mate[st.blbase[bv]]]] = 0
				st.assignLabel(lab, 2, st.lblend[lab])
			}
			j += jstep
		}
	}
	st.label[b] = -1
	st.lblend[b] = -1
	st.blchld[b] = nil
	st.blendp[b] = nil
	st.blbase[b] = -1
	st.blbest[b] = nil
	st.best[b] = -1
	st.unused = append(st.unused, b)
}

// augmentBlossom swaps the matching inside blossom b so that vertex v
// becomes the base.
func (st *blossomState) augmentBlossom(b, v int32) {
	t := v
	for st.blpar[t] != b {
		t = st.blpar[t]
	}
	if int(t) >= st.n {
		st.augmentBlossom(t, v)
	}
	childs := st.blchld[b]
	endps := st.blendp[b]
	i := 0
	for k, c := range childs {
		if c == t {
			i = k
			break
		}
	}
	j := i
	var jstep int
	var endptrick int32
	if i&1 != 0 {
		j -= len(childs)
		jstep = 1
		endptrick = 0
	} else {
		jstep = -1
		endptrick = 1
	}
	idx := func(i int) int {
		if i < 0 {
			return i + len(childs)
		}
		return i
	}
	for j != 0 {
		j += jstep
		t = childs[idx(j)]
		p := endps[idx(j-int(endptrick))] ^ endptrick
		if int(t) >= st.n {
			st.augmentBlossom(t, st.endpt[p])
		}
		j += jstep
		t = childs[idx(j)]
		if int(t) >= st.n {
			st.augmentBlossom(t, st.endpt[p^1])
		}
		st.mate[st.endpt[p]] = p ^ 1
		st.mate[st.endpt[p^1]] = p
	}
	st.blchld[b] = append(childs[i:], childs[:i]...)
	st.blendp[b] = append(endps[i:], endps[:i]...)
	st.blbase[b] = st.blbase[st.blchld[b][0]]
}

// augmentMatching augments along the path through tight edge k.
func (st *blossomState) augmentMatching(k int32) {
	e := st.edges[k]
	for pass := 0; pass < 2; pass++ {
		var s, p int32
		if pass == 0 {
			s, p = e.U, 2*k+1
		} else {
			s, p = e.V, 2*k
		}
		for {
			bs := st.inbl[s]
			if int(bs) >= st.n {
				st.augmentBlossom(bs, s)
			}
			st.mate[s] = p
			if st.lblend[bs] == -1 {
				break
			}
			t := st.endpt[st.lblend[bs]]
			bt := st.inbl[t]
			s = st.endpt[st.lblend[bt]]
			j := st.endpt[st.lblend[bt]^1]
			if int(bt) >= st.n {
				st.augmentBlossom(bt, j)
			}
			st.mate[j] = st.lblend[bt]
			p = st.lblend[bt] ^ 1
		}
	}
}

func (st *blossomState) run() {
	n := st.n
	for iter := 0; iter < n; iter++ {
		for i := range st.label {
			st.label[i] = 0
		}
		for i := range st.best {
			st.best[i] = -1
		}
		for b := n; b < 2*n; b++ {
			st.blbest[b] = nil
		}
		for i := range st.allow {
			st.allow[i] = false
		}
		st.queue = st.queue[:0]
		for v := 0; v < n; v++ {
			if st.mate[v] == -1 && st.label[st.inbl[v]] == 0 {
				st.assignLabel(int32(v), 1, -1)
			}
		}
		augmented := false
		for {
			for len(st.queue) > 0 && !augmented {
				v := st.queue[len(st.queue)-1]
				st.queue = st.queue[:len(st.queue)-1]
				for _, p := range st.nbend[v] {
					k := p / 2
					w := st.endpt[p]
					if st.inbl[v] == st.inbl[w] {
						continue
					}
					var kslack int64
					if !st.allow[k] {
						kslack = st.slack(k)
						if kslack <= 0 {
							st.allow[k] = true
						}
					}
					if st.allow[k] {
						if st.label[st.inbl[w]] == 0 {
							st.assignLabel(w, 2, p^1)
						} else if st.label[st.inbl[w]] == 1 {
							base := st.scanBlossom(v, w)
							if base >= 0 {
								st.addBlossom(base, k)
							} else {
								st.augmentMatching(k)
								augmented = true
								break
							}
						} else if st.label[w] == 0 {
							st.label[w] = 2
							st.lblend[w] = p ^ 1
						}
					} else if st.label[st.inbl[w]] == 1 {
						b := st.inbl[v]
						if st.best[b] == -1 || kslack < st.slack(st.best[b]) {
							st.best[b] = k
						}
					} else if st.label[w] == 0 {
						if st.best[w] == -1 || kslack < st.slack(st.best[w]) {
							st.best[w] = k
						}
					}
				}
			}
			if augmented {
				break
			}
			// Compute the dual adjustment delta.
			deltaType := -1
			var delta int64
			var deltaEdge, deltaBlossom int32 = -1, -1
			if !st.maxCard {
				deltaType = 1
				delta = st.minVertexDual()
				if delta < 0 {
					delta = 0
				}
			}
			for v := 0; v < n; v++ {
				if st.label[st.inbl[v]] == 0 && st.best[v] != -1 {
					d := st.slack(st.best[v])
					if deltaType == -1 || d < delta {
						delta = d
						deltaType = 2
						deltaEdge = st.best[v]
					}
				}
			}
			for b := 0; b < 2*n; b++ {
				if st.blpar[b] == -1 && st.label[b] == 1 && st.best[b] != -1 {
					d := st.slack(st.best[b]) / 2
					if deltaType == -1 || d < delta {
						delta = d
						deltaType = 3
						deltaEdge = st.best[b]
					}
				}
			}
			for b := n; b < 2*n; b++ {
				if st.blbase[b] >= 0 && st.blpar[b] == -1 && st.label[b] == 2 &&
					(deltaType == -1 || st.dual[b] < delta) {
					delta = st.dual[b]
					deltaType = 4
					deltaBlossom = int32(b)
				}
			}
			if deltaType == -1 {
				deltaType = 1
				delta = st.minVertexDual()
				if delta < 0 {
					delta = 0
				}
			}
			// Update duals.
			for v := 0; v < n; v++ {
				switch st.label[st.inbl[v]] {
				case 1:
					st.dual[v] -= delta
				case 2:
					st.dual[v] += delta
				}
			}
			for b := n; b < 2*n; b++ {
				if st.blbase[b] >= 0 && st.blpar[b] == -1 {
					switch st.label[b] {
					case 1:
						st.dual[b] += delta
					case 2:
						st.dual[b] -= delta
					}
				}
			}
			switch deltaType {
			case 1:
				// Optimum reached.
			case 2:
				st.allow[deltaEdge] = true
				e := st.edges[deltaEdge]
				i := e.U
				if st.label[st.inbl[i]] == 0 {
					i = e.V
				}
				st.queue = append(st.queue, i)
			case 3:
				st.allow[deltaEdge] = true
				st.queue = append(st.queue, st.edges[deltaEdge].U)
			case 4:
				st.expandBlossom(deltaBlossom, false)
			}
			if deltaType == 1 {
				break
			}
		}
		if !augmented {
			break
		}
		// Expand all S-blossoms with zero dual.
		for b := n; b < 2*n; b++ {
			if st.blpar[b] == -1 && st.blbase[b] >= 0 && st.label[b] == 1 && st.dual[b] == 0 {
				st.expandBlossom(int32(b), true)
			}
		}
	}
}

func (st *blossomState) minVertexDual() int64 {
	m := st.dual[0]
	for v := 1; v < st.n; v++ {
		if st.dual[v] < m {
			m = st.dual[v]
		}
	}
	return m
}
