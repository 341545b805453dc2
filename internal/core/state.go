package core

import (
	"slices"
	"sort"

	"repro/internal/levels"
)

// dualState is the central Õ(n)-space dual solution the covering
// framework averages: per-vertex per-level costs x_i(k), their maxima
// x_i, and a list of odd-set duals z_{U,ℓ}. A global scale factor makes
// the covering update x ← (1-σ)x + σx̃ O(nnz(x̃)) instead of O(|state|).
type dualState struct {
	scheme *levels.Scheme
	n      int
	nl     int

	scale float64     // stored values × scale = actual values
	xflat []float64   // n×nl backing of xik
	xik   [][]float64 // [vertex][level] views into xflat
	zsets []zset

	vertexSets [][]int32        // per vertex: indices into zsets
	zIndex     map[uint64]int32 // (members, level) fingerprint -> zsets idx
	zPruneRel  float64
}

// zset is one odd-set dual z_{U,ℓ} (stored value; actual = val*scale).
type zset struct {
	members []int32 // sorted
	level   int
	val     float64
}

func newDualState(scheme *levels.Scheme, n int, zPruneRel float64) *dualState {
	nl := scheme.NumLevels()
	st := &dualState{
		scheme:     scheme,
		n:          n,
		nl:         nl,
		scale:      1,
		xflat:      make([]float64, n*nl),
		xik:        make([][]float64, n),
		vertexSets: make([][]int32, n),
		zIndex:     make(map[uint64]int32),
		zPruneRel:  zPruneRel,
	}
	for v := range st.xik {
		st.xik[v] = st.xflat[v*nl : (v+1)*nl : (v+1)*nl]
	}
	return st
}

// reuseOrNewState returns a state ready for a fresh run: the retained
// one zeroed in place when its (n, levels) shape matches the new
// scheme, a newly allocated one otherwise. A reused state is
// indistinguishable from a fresh one — every x value zeroed, z list
// empty, scale 1 — it merely keeps the n×nl backing table, the
// per-vertex index rows and the fingerprint map warm for the session's
// next run.
func reuseOrNewState(prev *dualState, scheme *levels.Scheme, n int, zPruneRel float64) *dualState {
	if prev == nil || prev.n != n || prev.nl != scheme.NumLevels() {
		return newDualState(scheme, n, zPruneRel)
	}
	prev.scheme = scheme
	prev.zPruneRel = zPruneRel
	prev.scale = 1
	clear(prev.xflat)
	for v := range prev.vertexSets {
		prev.vertexSets[v] = prev.vertexSets[v][:0]
	}
	prev.zsets = prev.zsets[:0]
	clear(prev.zIndex)
	return prev
}

// XI returns the actual x_i(k).
func (st *dualState) XI(i, k int) float64 { return st.xik[i][k] * st.scale }

// XMax returns x_i = max_k x_i(k).
func (st *dualState) XMax(i int) float64 {
	m := 0.0
	for _, v := range st.xik[i] {
		if v > m {
			m = v
		}
	}
	return m * st.scale
}

// ZAt returns Σ_{ℓ<=k} Σ_{U∋i,j} z_{U,ℓ} for the edge (i, j) at level k.
func (st *dualState) ZAt(i, j int32, k int) float64 {
	a, b := st.vertexSets[i], st.vertexSets[j]
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	// Iterate the shorter list; membership check in the set itself.
	if len(b) < len(a) {
		a = b
		b = st.vertexSets[i]
		i, j = j, i
	}
	t := 0.0
	for _, si := range a {
		zs := &st.zsets[si]
		if zs.level > k || zs.val == 0 {
			continue
		}
		if containsSorted(zs.members, j) {
			t += zs.val
		}
	}
	return t * st.scale
}

func containsSorted(xs []int32, v int32) bool {
	lo, hi := 0, len(xs)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case xs[mid] < v:
			lo = mid + 1
		case xs[mid] > v:
			hi = mid - 1
		default:
			return true
		}
	}
	return false
}

// Coverage returns (Ax)_e = x_i(k) + x_j(k) + Σ_{ℓ<=k} Σ_{U∋i,j} z_{U,ℓ}
// for an edge at level k (the covering row value before dividing by ŵ_k).
func (st *dualState) Coverage(i, j int32, k int) float64 {
	return st.XI(int(i), k) + st.XI(int(j), k) + st.ZAt(i, j, k)
}

// CoverageRatio returns (Ax)_e / ŵ_k — the normalized covering row.
func (st *dualState) CoverageRatio(i, j int32, k int) float64 {
	return st.Coverage(i, j, k) / st.scheme.WHat(k)
}

// Objective returns b·x + Σ floor(||U||_b/2)·z (the dual objective, in
// rescaled ŵ units). bOf supplies vertex capacities.
func (st *dualState) Objective(bOf func(v int) int) float64 {
	t := 0.0
	for v := 0; v < st.n; v++ {
		t += float64(bOf(v)) * st.XMax(v)
	}
	for _, zs := range st.zsets {
		if zs.val == 0 {
			continue
		}
		norm := 0
		for _, m := range zs.members {
			norm += bOf(int(m))
		}
		t += zs.val * st.scale * float64(norm/2)
	}
	return t
}

// oracleAnswer is a sparse x̃ from the MicroOracle: per-(vertex, level)
// x values and new odd-set duals. All values are actual (unscaled).
type oracleAnswer struct {
	xEntries []xEntry
	zEntries []zEntry
}

type xEntry struct {
	v   int32
	k   int
	val float64
}

type zEntry struct {
	members []int32 // sorted
	level   int
	val     float64
}

// isZero reports an all-zero answer.
func (a *oracleAnswer) isZero() bool { return len(a.xEntries) == 0 && len(a.zEntries) == 0 }

// BDotX returns b·x + Σ floor z contributions of the answer.
func (a *oracleAnswer) objective(bOf func(v int) int) float64 {
	t := 0.0
	// x_i contributes via max over k; conservative upper bound uses the
	// per-entry max per vertex.
	maxPerVertex := map[int32]float64{}
	for _, xe := range a.xEntries {
		if xe.val > maxPerVertex[xe.v] {
			maxPerVertex[xe.v] = xe.val
		}
	}
	// Accumulate in sorted vertex order: summing floats in map iteration
	// order would make the objective differ in the last bits run to run.
	vs := make([]int32, 0, len(maxPerVertex))
	//lint:ordered key collection, sorted immediately below
	for v := range maxPerVertex {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	for _, v := range vs {
		t += float64(bOf(int(v))) * maxPerVertex[v]
	}
	for _, ze := range a.zEntries {
		norm := 0
		for _, m := range ze.members {
			norm += bOf(int(m))
		}
		t += ze.val * float64(norm/2)
	}
	return t
}

// Average applies the covering update x ← (1-σ)x + σ·x̃ using the scale
// trick: the global scale absorbs (1-σ); the answer is divided by the
// new scale on insertion.
func (st *dualState) Average(sigma float64, ans *oracleAnswer) {
	if sigma <= 0 {
		return
	}
	st.scale *= 1 - sigma
	if st.scale < 1e-280 {
		st.rescale()
	}
	inv := sigma / st.scale
	for _, xe := range ans.xEntries {
		st.xik[xe.v][xe.k] += xe.val * inv
	}
	for _, ze := range ans.zEntries {
		st.addZSet(ze.members, ze.level, ze.val*inv)
	}
	if st.zPruneRel > 0 && len(st.zsets) > 4*st.n {
		st.prune()
	}
}

// addZSet accumulates one odd-set dual (stored value, i.e. already
// divided by the current scale) into the deduplicated z list: identical
// (U, ℓ) duals accumulate into one set — this keeps the state size at
// the number of *distinct* priced odd sets rather than the number of
// oracle answers.
func (st *dualState) addZSet(members []int32, level int, val float64) {
	fp := zFingerprint(members, level)
	if idx, ok := st.zIndex[fp]; ok && sameSet(st.zsets[idx].members, members) && st.zsets[idx].level == level {
		st.zsets[idx].val += val
		return
	}
	idx := int32(len(st.zsets))
	st.zsets = append(st.zsets, zset{
		members: members,
		level:   level,
		val:     val,
	})
	st.zIndex[fp] = idx
	for _, m := range members {
		st.vertexSets[m] = append(st.vertexSets[m], idx)
	}
}

// zFingerprint hashes a sorted member list and level (FNV-1a).
func zFingerprint(members []int32, level int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(level))
	for _, m := range members {
		mix(uint64(uint32(m)))
	}
	return h
}

func sameSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rescale folds the global scale back into the stored values.
func (st *dualState) rescale() {
	s := st.scale
	for v := range st.xik {
		for k := range st.xik[v] {
			st.xik[v][k] *= s
		}
	}
	for i := range st.zsets {
		st.zsets[i].val *= s
	}
	st.scale = 1
}

// prune drops z-sets whose value is negligible relative to the largest,
// rebuilding the vertex index.
func (st *dualState) prune() {
	maxV := 0.0
	for _, zs := range st.zsets {
		if zs.val > maxV {
			maxV = zs.val
		}
	}
	thresh := maxV * st.zPruneRel
	kept := st.zsets[:0]
	for _, zs := range st.zsets {
		if zs.val > thresh {
			kept = append(kept, zs)
		}
	}
	st.zsets = kept
	for v := range st.vertexSets {
		st.vertexSets[v] = st.vertexSets[v][:0]
	}
	st.zIndex = make(map[uint64]int32, len(st.zsets))
	for i, zs := range st.zsets {
		st.zIndex[zFingerprint(zs.members, zs.level)] = int32(i)
		for _, m := range zs.members {
			st.vertexSets[m] = append(st.vertexSets[m], int32(i))
		}
	}
}

// SetInit installs the Lemma 12/21 initial solution: x_i(k) = val for
// saturated (i, k) pairs. Must be called on a fresh state.
func (st *dualState) SetInit(entries []xEntry) {
	for _, xe := range entries {
		if xe.val/st.scale > st.xik[xe.v][xe.k] {
			st.xik[xe.v][xe.k] = xe.val / st.scale
		}
	}
}

// sortedMembers normalizes a member list.
func sortedMembers(ms []int32) []int32 {
	out := append([]int32(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
