package core

// rowTable indexes the P_o rows of one support — the (vertex, level)
// pairs with an incident support edge — by dense row id. runMiniOracle
// builds one per call and every MicroOracle call inside it reads it, so
// the per-row bookkeeping is slices addressed by row id or vertex
// instead of maps keyed by (vertex, level):
//
//   - rows holds the keys in first-seen order over the support (u before
//     v, edge by edge). That is the row order of pack.Solve's vectors.
//   - index maps the dense key v·L+k to the row id (-1 for none).
//   - sorted lists the row ids in (v, k) order, and vOff splits it into
//     per-vertex ranges: sorted[vOff[v]:vOff[v+1]] are v's rows, k
//     ascending. Every float sum over rows walks this order, which is
//     the order the map-keyed oracle got by sorting the keys per call.
//
// s and usC are the support's per-row incident weight and (uˢ)ᵀc,
// summed in edge order; activeDesc lists the levels that carry support
// edges, highest first. Every buffer is O(support) or O(n·levels) and
// is rebuilt in place per call.
type rowTable struct {
	nV, nl     int // vertex bound (max endpoint + 1) and level count L
	rows       []rowKey
	index      []int32
	sorted     []int32
	vOff       []int32
	s          []float64
	usC        float64
	activeDesc []int
	levelSeen  []bool // per level, scratch for activeDesc
}

// build rebuilds the table for a support whose levels lie in [0, nl).
func (t *rowTable) build(edges []supportEdge, nl int, wHat func(k int) float64) {
	// Restore the all -1 invariant of the dense index before the shape
	// changes: only the previous call's rows were ever set.
	for _, rk := range t.rows {
		t.index[int(rk.v)*t.nl+rk.k] = -1
	}
	maxV := int32(0)
	for _, e := range edges {
		maxV = max(maxV, e.u, e.v)
	}
	t.nV, t.nl = int(maxV)+1, nl
	if len(edges) == 0 {
		t.nV = 0
	}
	if need := t.nV * nl; cap(t.index) < need {
		t.index = make([]int32, need)
		for i := range t.index {
			t.index[i] = -1
		}
	} else {
		t.index = t.index[:need]
	}

	t.rows = t.rows[:0]
	t.s = t.s[:0]
	t.usC = 0
	t.levelSeen = resizeZeroed(t.levelSeen, nl)
	for _, e := range edges {
		ru, rv := t.row(e.u, e.k), t.row(e.v, e.k)
		t.s[ru] += e.w
		t.s[rv] += e.w
		t.usC += wHat(e.k) * e.w
		t.levelSeen[e.k] = true
	}
	t.activeDesc = t.activeDesc[:0]
	for l := nl - 1; l >= 0; l-- {
		if t.levelSeen[l] {
			t.activeDesc = append(t.activeDesc, l)
		}
	}

	// The (v, k) order falls out of the dense index: walk each vertex's
	// L keys in level order.
	t.sorted = t.sorted[:0]
	t.vOff = resizeZeroed(t.vOff, t.nV+1)
	for v := 0; v < t.nV; v++ {
		t.vOff[v] = int32(len(t.sorted))
		for _, ri := range t.index[v*nl : (v+1)*nl] {
			if ri >= 0 {
				t.sorted = append(t.sorted, ri)
			}
		}
	}
	t.vOff[t.nV] = int32(len(t.sorted))
}

// row returns the id of row (v, k), appending it on first sight.
func (t *rowTable) row(v int32, k int) int32 {
	key := int(v)*t.nl + k
	if ri := t.index[key]; ri >= 0 {
		return ri
	}
	ri := int32(len(t.rows))
	t.index[key] = ri
	t.rows = append(t.rows, rowKey{v, k})
	t.s = append(t.s, 0)
	return ri
}

// lookup returns the id of row (v, k), or -1 when the support has no
// such row.
func (t *rowTable) lookup(v int32, k int) int32 {
	if int(v) >= t.nV || k >= t.nl {
		return -1
	}
	return t.index[int(v)*t.nl+k]
}

// vertexRows returns v's row ids in level order (empty for a vertex
// with no support edge).
func (t *rowTable) vertexRows(v int32) []int32 {
	if int(v) >= t.nV {
		return nil
	}
	return t.sorted[t.vOff[v]:t.vOff[v+1]]
}

// resizeZeroed returns a zeroed length-n buffer, reusing b's backing
// when it is large enough.
func resizeZeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}
