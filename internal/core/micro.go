package core

import (
	"sort"

	"repro/internal/oddset"
)

// MicroOracle — Algorithm 5 (part (ii) of the oracle behind Lemma 14).
//
// Given the refined sparsifier weights uˢ (supported on E′), packing
// multipliers ζ_{i,k} on the P_o rows, a Lagrange multiplier ϱ and the
// current dual budget β, it either
//
//   - returns a sparse dual step x̃ = ({x_i(k)}, {z_{U,ℓ}}) satisfying the
//     Lagrangian LagInner together with G(uˢ,x̃) and Q̃(β)   (part ii), or
//   - certifies that the support carries a (1-ε)-sized fractional
//     b-matching witness (LP7)                                (part i).
//
// The logic follows the three-way split of Algorithm 5: violating
// vertices pay (Γ(V) large → x-type answer), violating odd sets pay
// (Γ(Os) large → z-type answer), or nothing pays much and the support is
// itself a large matching witness.

// supportEdge is one refined sparsifier edge.
type supportEdge struct {
	u, v    int32
	k       int     // weight level
	w       float64 // uˢ value (refined multiplier estimate)
	origIdx int     // index into the input graph's edge list
}

// microInput bundles a MicroOracle invocation.
type microInput struct {
	edges   []supportEdge
	rt      *rowTable // the P_o rows of edges
	zeta    []float64 // ζ_{i,k} per row of rt (same scale as uˢ; +0 where unset)
	zetaSet []bool    // per row: ζ is set (a positive packing multiplier)
	rho     float64   // the Lagrange multiplier ϱ
	beta    float64
	eps     float64
	bOf     func(v int) int
	wHat    func(k int) float64
	nLevels int
	maxNorm int  // 4/ε bound for odd sets
	noOdd   bool // ablation: skip odd-set pricing
}

// rowKey identifies a P_o row (vertex, level).
type rowKey struct {
	v int32
	k int
}

// microResult is the oracle's answer.
type microResult struct {
	// matchingWitness true means part (i): the support certifies a large
	// matching (the caller raises β / extracts a matching offline).
	matchingWitness bool
	// witness is the explicit LP7 solution of Algorithm 5 steps 20-21
	// (set only when matchingWitness is true and the oracle reached the
	// constructive branch — the noOdd ablation short-circuits it).
	witness *lp7Witness
	answer  oracleAnswer
	gamma   float64 // γ of Algorithm 5 step 1 (diagnostics)
}

// lp7Witness is a feasible solution of LP7 over the support: fractional
// edge values y (per support edge, in the order of microInput.edges) and
// vertex slacks μ_{i,k}. By Lemma 13 its existence certifies an integral
// matching of weight >= (1-2ε)β within the support.
type lp7Witness struct {
	y     []float64 // parallel to microInput.edges
	mu    map[rowKey]float64
	beta  float64
	gamma float64
}

// runMicroOracleScratch executes Algorithm 5 with the working buffers
// of sc. A Case A or Case B answer's entries are written into dst's x or
// z container, which the caller owns: the returned answer shares that
// backing and is overwritten by the next call handed the same dst.
func runMicroOracleScratch(in microInput, sc *oracleScratch, dst *oracleAnswer) microResult {
	rt := in.rt
	rows, zeta := rt.rows, in.zeta
	// Per-(i,k) incident support weight s_{i,k} = Σ_j uˢ_{ijk} and the
	// total weighted support (uˢ)ᵀc = Σ_k ŵ_k Σ_{E'_k} uˢ come with the
	// row table. Float addition is not associative: every sum over rows
	// walks them in the table's (v, k) order, so the oracle is a pure
	// function of its input — the determinism the parallel pipeline's
	// bit-identical contract rests on.
	s := rt.s
	usC := rt.usC
	// γ = (uˢ)ᵀc - 3ϱ Σ_{i,k} ŵ_k ζ_{i,k}.
	gamma := usC
	for _, ri := range rt.sorted {
		if in.zetaSet[ri] {
			gamma -= 3 * in.rho * in.wHat(rows[ri].k) * zeta[ri]
		}
	}
	res := microResult{gamma: gamma}
	if gamma <= 0 {
		// Step 1 note: x = 0 satisfies LagInner trivially.
		return res
	}
	// d_{i,k} = s_{i,k} - 2ϱζ_{i,k}; Pos(i) = {k : d_{i,k} > 0}. A
	// vertex's Pos entries are contiguous in sc.pos (the walk is grouped
	// by vertex): posVerts[j] owns pos[posOff[j]:posOff[j+1]].
	inPos := resizeZeroed(sc.inPos, len(rows))
	sc.inPos = inPos
	pos, posVerts, posOff := sc.pos[:0], sc.posVerts[:0], sc.posOff[:0]
	for v := 0; v < rt.nV; v++ {
		start := len(pos)
		for _, ri := range rt.vertexRows(int32(v)) {
			if d := s[ri] - 2*in.rho*zeta[ri]; d > 0 {
				inPos[ri] = true
				pos = append(pos, posEntry{rows[ri].k, d})
			}
		}
		if len(pos) > start {
			posVerts = append(posVerts, int32(v))
			posOff = append(posOff, int32(start))
		}
	}
	posOff = append(posOff, int32(len(pos)))
	sc.pos, sc.posVerts, sc.posOff = pos, posVerts, posOff
	posOf := func(j int) []posEntry { return pos[posOff[j]:posOff[j+1]] }
	// ζ rows with no support mass have d <= 0 and never join Pos.
	// Δ(i,ℓ) = Σ_{k∈Pos(i),k<=ℓ} ŵ_k d_{i,k} + Σ_{k∈Pos(i),k>ℓ} ŵ_ℓ d_{i,k}.
	delta := func(j, l int) float64 {
		t := 0.0
		for _, pe := range posOf(j) {
			if pe.k <= l {
				t += in.wHat(pe.k) * pe.d
			} else {
				t += in.wHat(l) * pe.d
			}
		}
		return t
	}
	// k*_i = largest ℓ with Δ(i,ℓ) > γ·b_i·ŵ_ℓ/β (-1 if none), per
	// vertex; viol lists the violating vertices' posVerts positions.
	kstar := resizeZeroed(sc.kstar, rt.nV)
	sc.kstar = kstar
	for v := range kstar {
		kstar[v] = -1
	}
	gammaOverBeta := gamma / in.beta
	viol := sc.viol[:0]
	gammaV := 0.0
	for j, i := range posVerts {
		ks := -1
		for l := in.nLevels - 1; l >= 0; l-- {
			if delta(j, l) > gammaOverBeta*float64(in.bOf(int(i)))*in.wHat(l) {
				ks = l
				break
			}
		}
		if ks >= 0 {
			kstar[i] = ks
			viol = append(viol, j)
			gammaV += delta(j, ks)
		}
	}
	sc.viol = viol
	// Case A (step 5): vertex violations pay.
	if gammaV >= in.eps*gamma/24 {
		xs := dst.xEntries[:0]
		for _, j := range viol {
			i := posVerts[j]
			ks := kstar[i]
			for _, pe := range posOf(j) {
				var val float64
				if pe.k > ks {
					val = gamma * in.wHat(ks) / gammaV
				} else {
					val = gamma * in.wHat(pe.k) / gammaV
				}
				xs = append(xs, xEntry{v: i, k: pe.k, val: val})
			}
		}
		dst.xEntries, res.answer.xEntries = xs, xs
		return res
	}
	// Step 9: raise ζ to ζ̄ = s_{i,k}/(2ϱ) on violating (i, k<=k*,
	// k∈Pos); elsewhere ζ̄ = ζ. γ′ (step 10) subtracts every row's ζ̄.
	zetaBar := resizeZeroed(sc.zetaBar, len(rows))
	sc.zetaBar = zetaBar
	gammaP := usC
	for _, ri := range rt.sorted {
		rk := rows[ri]
		zb := zeta[ri]
		if inPos[ri] && rk.k <= kstar[rk.v] {
			zb = s[ri] / (2 * in.rho)
		}
		zetaBar[ri] = zb
		gammaP -= 3 * in.rho * in.wHat(rk.k) * zb
	}
	// suffixZetaBar adds Σ_{k>=ℓ} ζ̄_{v,k} into t, level by level.
	suffixZetaBar := func(t float64, v int32, l int) float64 {
		for _, ri := range rt.vertexRows(v) {
			if rows[ri].k >= l {
				t += zetaBar[ri]
			}
		}
		return t
	}
	// Steps 11-14: per level ℓ, collect disjoint dense odd sets K(ℓ).
	// Charges (proof of Lemma 16): q_ij(ℓ) = (1-ε/4)β/γ · uˢ (edges with
	// k >= ℓ); q̂_i(ℓ) = b_i + 2(1-ε/4)ϱβ/γ · Σ_{k>=ℓ} ζ̄_{i,k}.
	scaleQ := (1 - in.eps/4) * in.beta / gamma
	type levelSets struct {
		level int
		sets  []oddset.Set
		// Δ(U,ℓ) = Σ_{k>=ℓ}(Σ_{ij∈U} uˢ - ϱ Σ_{i∈U} ζ̄) per set
		deltas []float64
	}
	var perLevel []levelSets
	gammaOs := 0.0
	if in.noOdd {
		// Ablation: no odd sets are priced; fall through to part (i).
		res.matchingWitness = true
		return res
	}
	nV := rt.nV
	// Only levels that actually carry support edges can yield distinct
	// collections: for ℓ between two active levels the charges q(ℓ) are
	// identical to those of the next active level up, so z_{U,ℓ} placed
	// there covers the same constraints. Iterate active levels only.
	// The odd-set instance buffers live one level at a time: Collect
	// returns fresh member copies, so nothing retained by perLevel
	// aliases them and the next level overwrites in place.
	if cap(sc.qhat) < nV {
		sc.qhat = make([]float64, nV)
	}
	if cap(sc.bnorm) < nV {
		sc.bnorm = make([]int, nV)
	}
	for _, l := range rt.activeDesc {
		inst := &oddset.Instance{
			N:       nV,
			QHat:    sc.qhat[:nV],
			MaxNorm: in.maxNorm,
			Eps:     in.eps,
		}
		inst.Edges = sc.qedges[:0]
		bn := sc.bnorm[:nV]
		unit := true
		for v := 0; v < nV; v++ {
			bn[v] = in.bOf(v)
			if bn[v] != 1 {
				unit = false
			}
			zsum := suffixZetaBar(0, int32(v), l)
			inst.QHat[v] = float64(bn[v]) + 2*scaleQ*in.rho*zsum
		}
		if !unit {
			inst.BNorm = bn
		}
		for _, e := range in.edges {
			if e.k >= l {
				inst.Edges = append(inst.Edges, oddset.QEdge{U: e.u, V: e.v, Q: scaleQ * e.w})
			}
		}
		sc.qedges = inst.Edges
		sets := inst.Collect()
		if len(sets) == 0 {
			continue
		}
		ls := levelSets{level: l}
		for _, st := range sets {
			// Δ(U,ℓ) in uˢ units: internal/scaleQ - ϱ Σ ζ̄ suffix. The
			// members' terms go straight into one running total (a
			// per-member subtotal would change the float association).
			inside := st.Internal / scaleQ
			zpart := 0.0
			for _, m := range st.Members {
				zpart = suffixZetaBar(zpart, int32(m), l)
			}
			d := inside - in.rho*zpart
			ls.sets = append(ls.sets, st)
			ls.deltas = append(ls.deltas, d)
			gammaOs += in.wHat(l) * d
		}
		perLevel = append(perLevel, ls)
	}
	// Case B (step 16): odd-set violations pay. (Note use of γ′.) The
	// member lists are not reused: addZSet retains them in the dual
	// state, so sortedMembers allocates each fresh.
	if gammaOs >= in.eps*gammaP/24 && gammaOs > 0 {
		zs := dst.zEntries[:0]
		for _, ls := range perLevel {
			for si := range ls.sets {
				members := make([]int32, len(ls.sets[si].Members))
				for mi, m := range ls.sets[si].Members {
					members[mi] = int32(m)
				}
				zs = append(zs, zEntry{
					members: sortedMembers(members),
					level:   ls.level,
					val:     gammaP * in.wHat(ls.level) / gammaOs,
				})
			}
		}
		dst.zEntries, res.answer.zEntries = zs, zs
		return res
	}
	// Part (i): nothing pays — the support certifies a large matching.
	// Steps 20-21: lift ζ̄ to ζ̂ on the members of the collected sets and
	// scale (uˢ, ϱζ̂) into the LP7 solution (y, μ); the driver's offline
	// solve extracts the integral matching per Lemma 13.
	res.matchingWitness = true
	zetaHat := make(map[rowKey]float64, len(rows))
	for ri, rk := range rows {
		zetaHat[rk] = zetaBar[ri]
	}
	for _, ls := range perLevel {
		for _, set := range ls.sets {
			for _, m := range set.Members {
				rk := rowKey{int32(m), ls.level}
				zetaHat[rk] += gamma * float64(in.bOf(m)) / (2 * in.rho * in.beta)
			}
		}
	}
	scaleY := (1 - in.eps/4) * in.beta / ((1 + in.eps/2) * gamma)
	w := &lp7Witness{
		y:     make([]float64, len(in.edges)),
		mu:    make(map[rowKey]float64, len(zetaHat)),
		beta:  in.beta,
		gamma: gamma,
	}
	for i, e := range in.edges {
		w.y[i] = scaleY * e.w
	}
	//lint:ordered per-key scale into w.mu, no cross-key accumulation
	for rk, zh := range zetaHat {
		if zh > 0 {
			w.mu[rk] = scaleY * in.rho * zh
		}
	}
	res.witness = w
	return res
}

// checkLP7 verifies the witness against LP7's constraints over the
// support, enumerating odd sets up to maxNorm over the support vertices
// (exponential — test/verification use only). It returns the first
// violation as a non-empty string, or "".
func checkLP7(in microInput, w *lp7Witness, tol float64) string {
	// Objective: Σ_k ŵ_k (Σ y - 3 Σ_i μ_{i,k}) >= (1-ε)β. Like every
	// float accumulation in this file, the sums walk map keys in sorted
	// order so the verdict is bit-identical run to run — near-tolerance
	// witnesses must not flip with Go's randomized map iteration.
	muKeys := sortedRowKeys(w.mu)
	obj := 0.0
	for i, e := range in.edges {
		obj += in.wHat(e.k) * w.y[i]
	}
	for _, rk := range muKeys {
		obj -= 3 * in.wHat(rk.k) * w.mu[rk]
	}
	if obj < (1-in.eps)*w.beta-tol {
		return "objective below (1-eps)beta"
	}
	// Vertex constraints: Σ_k max(0, Σ_j y_{ijk} - 2μ_{i,k}) <= b_i.
	perRow := map[rowKey]float64{}
	verts := map[int32]bool{}
	for i, e := range in.edges {
		perRow[rowKey{e.u, e.k}] += w.y[i]
		perRow[rowKey{e.v, e.k}] += w.y[i]
		verts[e.u] = true
		verts[e.v] = true
	}
	perVertex := map[int32]float64{}
	for _, rk := range sortedRowKeys(perRow) {
		d := perRow[rk] - 2*w.mu[rk]
		if d > 0 {
			perVertex[rk.v] += d
		}
	}
	//lint:ordered per-key threshold check, no cross-key accumulation
	for v, tot := range perVertex {
		if tot > float64(in.bOf(int(v)))+tol {
			return "vertex capacity violated"
		}
	}
	// Odd-set constraints: Σ_{k>=ℓ}(Σ_{ij∈U} y - Σ_{i∈U} μ_{i,k}) <=
	// floor(||U||_b/2) for every odd U up to maxNorm and every active ℓ.
	// Vertices and levels are sorted so the subset enumeration order (and
	// hence which violation is reported first) is deterministic.
	vs := make([]int32, 0, len(verts))
	//lint:ordered key collection, sorted immediately below
	for v := range verts {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	levelSet := map[int]bool{}
	for _, e := range in.edges {
		levelSet[e.k] = true
	}
	levels := make([]int, 0, len(levelSet))
	//lint:ordered key collection, sorted immediately below
	for l := range levelSet {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	viol := ""
	enumerateOddSubsets(vs, in.bOf, in.maxNorm, func(set []int32) bool {
		mask := map[int32]bool{}
		norm := 0
		for _, v := range set {
			mask[v] = true
			norm += in.bOf(int(v))
		}
		for _, l := range levels {
			lhs := 0.0
			for i, e := range in.edges {
				if e.k >= l && mask[e.u] && mask[e.v] {
					lhs += w.y[i]
				}
			}
			for _, rk := range muKeys {
				if rk.k >= l && mask[rk.v] {
					lhs -= w.mu[rk]
				}
			}
			if lhs > float64(norm/2)+tol {
				viol = "odd-set constraint violated"
				return false
			}
		}
		return true
	})
	return viol
}

// enumerateOddSubsets enumerates subsets of vs with odd b-norm, size >= 3
// and norm <= maxNorm, calling f (stop on false).
func enumerateOddSubsets(vs []int32, bOf func(int) int, maxNorm int, f func([]int32) bool) {
	var cur []int32
	stopped := false
	var rec func(start, norm int)
	rec = func(start, norm int) {
		if stopped {
			return
		}
		if len(cur) >= 3 && norm%2 == 1 {
			if !f(cur) {
				stopped = true
				return
			}
		}
		for i := start; i < len(vs); i++ {
			nb := bOf(int(vs[i]))
			if norm+nb > maxNorm {
				continue
			}
			cur = append(cur, vs[i])
			rec(i+1, norm+nb)
			cur = cur[:len(cur)-1]
			if stopped {
				return
			}
		}
	}
	rec(0, 0)
}

// sortedRowKeys returns the keys of a rowKey-indexed map in (v, k) order,
// the canonical iteration order for float accumulations over P_o rows.
func sortedRowKeys(m map[rowKey]float64) []rowKey {
	keys := make([]rowKey, 0, len(m))
	//lint:ordered key collection, sorted immediately below
	for rk := range m {
		keys = append(keys, rk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].v != keys[j].v {
			return keys[i].v < keys[j].v
		}
		return keys[i].k < keys[j].k
	})
	return keys
}
