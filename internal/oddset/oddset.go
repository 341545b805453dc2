// Package oddset implements the odd-set machinery of the paper:
//
//   - collections of mutually disjoint *dense small odd sets* in the sense
//     of Lemma 24 / Lemma 16 (the separation routine the MicroOracle uses
//     to price the z_{U,ℓ} duals), and
//   - laminar-family utilities including the uncrossing argument of
//     Theorem 22 (used in tests to certify the structure of optimal duals).
//
// The paper separates dense odd sets with approximate Gomory–Hu trees
// ([2, Lemma 12]); per DESIGN.md substitution 3 we provide an exact
// enumerator for small supports (the deferred-sparsifier supports the
// solver actually feeds it) and a contraction heuristic for larger ones,
// cross-checked against the enumerator in tests.
package oddset

import "sort"

// QEdge is a support edge with a non-negative charge q_ij.
type QEdge struct {
	U, V int32
	Q    float64
}

// Instance is one separation problem (Lemma 24): vertex budgets qhat,
// edge charges q, vertex norms b. A set U (with ||U||_b odd,
// 3 <= ||U||_b <= MaxNorm) is *dense* if
//
//	internal(U) > (qhat(U) - (1-Eps)) / 2
//
// and the collection must contain only sets satisfying the weaker
// condition internal(U) >= (qhat(U) - 1) / 2 while intersecting every
// dense set.
type Instance struct {
	N       int
	BNorm   []int // per-vertex b_i (nil = all ones)
	QHat    []float64
	Edges   []QEdge
	MaxNorm int // the 4/ε bound on ||U||_b
	Eps     float64
}

func (in *Instance) bnorm(v int) int {
	if in.BNorm == nil {
		return 1
	}
	return in.BNorm[v]
}

// Set is a selected odd set with its charge statistics.
type Set struct {
	Members  []int
	Internal float64
	QHatSum  float64
}

// Collect returns a collection of mutually disjoint odd sets satisfying
// Lemma 24's conditions: every returned set meets condition (i), and —
// exactly for small supports, heuristically for large ones — every dense
// odd set intersects the returned collection.
func (in *Instance) Collect() []Set {
	// Count support vertices; exact enumeration if small enough.
	support := in.supportVertices()
	if enumFeasible(len(support), in.MaxNorm) {
		return in.collectExact(support)
	}
	return in.collectHeuristic(support)
}

// supportVertices lists vertices incident to a positive-charge edge.
func (in *Instance) supportVertices() []int {
	seen := make(map[int32]bool)
	for _, e := range in.Edges {
		if e.Q > 0 {
			seen[e.U] = true
			seen[e.V] = true
		}
	}
	out := make([]int, 0, len(seen))
	//lint:ordered key collection, sorted immediately below
	for v := range seen {
		out = append(out, int(v))
	}
	sort.Ints(out)
	return out
}

// enumFeasible gates exact enumeration: C(s, maxNorm) within budget.
func enumFeasible(s, maxNorm int) bool {
	if s <= 3 {
		return true
	}
	if maxNorm > s {
		maxNorm = s
	}
	total := 0.0
	choose := 1.0
	for k := 1; k <= maxNorm; k++ {
		choose *= float64(s-k+1) / float64(k)
		total += choose
		if total > 2e6 {
			return false
		}
	}
	return true
}

// collectExact enumerates every odd candidate set over the support and
// greedily selects disjoint dense sets in decreasing surplus order.
func (in *Instance) collectExact(support []int) []Set {
	type cand struct {
		set     []int
		surplus float64 // internal - (qhat - (1-eps))/2
		in, qh  float64
	}
	var cands []cand
	cur := make([]int, 0, in.MaxNorm)
	// Incremental internal charge tracking via adjacency on support.
	adj := make(map[int64]float64)
	for _, e := range in.Edges {
		k := int64(e.U)<<32 | int64(e.V)
		adj[k] += e.Q
		k2 := int64(e.V)<<32 | int64(e.U)
		adj[k2] += e.Q
	}
	var rec func(start int, norm int, internal, qhat float64)
	rec = func(start int, norm int, internal, qhat float64) {
		if len(cur) >= 3 && norm%2 == 1 {
			surplus := internal - (qhat-(1-in.Eps))/2
			if surplus > 0 {
				cands = append(cands, cand{
					set:     append([]int(nil), cur...),
					surplus: surplus,
					in:      internal,
					qh:      qhat,
				})
			}
		}
		for si := start; si < len(support); si++ {
			v := support[si]
			nb := in.bnorm(v)
			if norm+nb > in.MaxNorm {
				continue
			}
			add := 0.0
			for _, u := range cur {
				add += adj[int64(v)<<32|int64(u)]
			}
			cur = append(cur, v)
			rec(si+1, norm+nb, internal+add, qhat+in.QHat[v])
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, 0, 0, 0)
	sort.Slice(cands, func(i, j int) bool { return cands[i].surplus > cands[j].surplus })
	used := make(map[int]bool)
	var out []Set
	for _, c := range cands {
		ok := true
		for _, v := range c.set {
			if used[v] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, v := range c.set {
			used[v] = true
		}
		out = append(out, Set{Members: c.set, Internal: c.in, QHatSum: c.qh})
	}
	return out
}

// collectHeuristic grows clusters by heaviest-incident-edge contraction
// and keeps odd prefixes that pass the density test.
func (in *Instance) collectHeuristic(support []int) []Set {
	// Adjacency lists over the support.
	adj := make(map[int][]QEdge)
	for _, e := range in.Edges {
		if e.Q <= 0 {
			continue
		}
		adj[int(e.U)] = append(adj[int(e.U)], e)
		adj[int(e.V)] = append(adj[int(e.V)], e)
	}
	used := make(map[int]bool)
	var out []Set
	// Seed clusters from vertices in decreasing weighted degree.
	deg := make(map[int]float64)
	//lint:ordered per-key accumulation over each v's own slice, no cross-key sums
	for v, es := range adj {
		for _, e := range es {
			deg[v] += e.Q
		}
	}
	order := append([]int(nil), support...)
	sort.Slice(order, func(i, j int) bool { return deg[order[i]] > deg[order[j]] })
	for _, seed := range order {
		if used[seed] {
			continue
		}
		cluster := []int{seed}
		inCluster := map[int]bool{seed: true}
		norm := in.bnorm(seed)
		internal := 0.0
		qhat := in.QHat[seed]
		var best *Set
		for norm < in.MaxNorm {
			// Pick the outside neighbor with maximum connection charge.
			gain := make(map[int]float64)
			for _, v := range cluster {
				for _, e := range adj[v] {
					o := int(e.U)
					if o == v {
						o = int(e.V)
					}
					if !inCluster[o] && !used[o] {
						gain[o] += e.Q
					}
				}
			}
			bestV, bestG := -1, 0.0
			//lint:ordered argmax with (max gain, min vertex) tie-break, order-independent
			for o, gn := range gain {
				if gn > bestG || (gn == bestG && bestV != -1 && o < bestV) {
					bestV, bestG = o, gn
				}
			}
			if bestV == -1 {
				break
			}
			cluster = append(cluster, bestV)
			inCluster[bestV] = true
			norm += in.bnorm(bestV)
			internal += bestG
			qhat += in.QHat[bestV]
			if len(cluster) >= 3 && norm%2 == 1 && norm <= in.MaxNorm {
				if internal > (qhat-(1-in.Eps))/2 {
					cp := append([]int(nil), cluster...)
					sort.Ints(cp)
					best = &Set{Members: cp, Internal: internal, QHatSum: qhat}
				}
			}
		}
		if best != nil {
			conflict := false
			for _, v := range best.Members {
				if used[v] {
					conflict = true
					break
				}
			}
			if !conflict {
				for _, v := range best.Members {
					used[v] = true
				}
				out = append(out, *best)
			}
		}
	}
	return out
}
