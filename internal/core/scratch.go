package core

import "repro/internal/oddset"

// oracleScratch owns the retained working buffers of the sequential
// refine-and-use loop: the P_o row table of runMiniOracle, the per-row
// and per-vertex state and odd-set instance buffers of runMicroOracle,
// and the answer containers the packing framework averages. One scratch
// belongs to one solver and the oracle loop is sequential, so nothing
// locks.
//
// The aliasing rules that keep reuse sound:
//
//   - Pools with lent tracking (row-value vectors, answer containers)
//     are reclaimed at the START of each runMiniOracle call. Everything
//     handed out during the previous call is dead by then — the final
//     answer is consumed by dualState.Average before the next use, and
//     pack.Solve copies its initial rows instead of retaining them.
//   - The row table is rebuilt at the start of each runMiniOracle call;
//     the per-row and per-vertex slices (ζ, ζ̄, Pos, k*) are resized and
//     overwritten by the packing-oracle invocation or MicroOracle call
//     that owns them, the odd-set buffers per level.
//   - Anything that lands in long-lived state is NEVER pooled: odd-set
//     member lists (retained by dualState.addZSet) stay freshly
//     allocated in sortedMembers, as do the LP7 witness fields.
//
// A nil scratch is legal everywhere and means "allocate fresh", which
// is also how the tests drive the oracles directly.
type oracleScratch struct {
	// MiniOracle row table, rebuilt per call, and the ζ of the current
	// packing-oracle invocation, per row.
	rt      rowTable
	zeta    []float64
	zetaSet []bool

	// refineBatch buffers: per-level support rows (each written only by
	// the worker that owns its index, so the parallel fan-out stays
	// race-free) and their level-order concatenation. The concatenated
	// support is consumed by the runMiniOracle call that follows and is
	// dead by the next refineBatch.
	perLevel [][]supportEdge
	support  []supportEdge

	f64s  lentPool[float64] // row-value vectors (rv, crv, uniform)
	xents lentPool[xEntry]  // answer containers; entries are value copies
	zents lentPool[zEntry]  // (zEntry member pointers stay fresh)

	// answerAccum backing: one accumulator and one final answer live per
	// MiniOracle call, so these are plain fields, not pools — growth
	// across the packing iterations is retained.
	accX, finX, combX []xEntry
	accZ, finZ, combZ []zEntry

	// MicroOracle per-call state: per row (Pos membership, ζ̄), per
	// vertex (k*), and the Pos entries grouped by vertex.
	inPos    []bool
	zetaBar  []float64
	kstar    []int
	pos      []posEntry
	posVerts []int32        // vertices with a non-empty Pos, ascending
	posOff   []int32        // posVerts[j]'s entries are pos[posOff[j]:posOff[j+1]]
	viol     []int          // positions in posVerts of the violating vertices
	qhat     []float64      // oddset.Instance charge vector, len nV
	bnorm    []int          // oddset.Instance norms, len nV
	qedges   []oddset.QEdge // oddset.Instance edge list
}

func newOracleScratch() *oracleScratch { return &oracleScratch{} }

// beginMini resets the scratch for one runMiniOracle call: reclaim the
// lent pools (the previous call's buffers are all dead, see above).
func (sc *oracleScratch) beginMini() {
	sc.f64s.reclaim()
	sc.xents.reclaim()
	sc.zents.reclaim()
}

// posEntry is one positive-deficit level of a vertex (d_{i,k} > 0).
type posEntry struct {
	k int
	d float64
}

// lentPool is a typed free-list with wholesale reclaim, scoped to the
// oracle loop, where buffers turn over per call. get pops the most
// recently freed buffer when it fits (within one MiniOracle call nearly
// every request has the same length, so the last-freed buffer almost
// always fits and the best-fit scan never runs), zeroes it to the
// requested length, and records it as lent; getEmpty returns a
// zero-length buffer for append-style use.
type lentPool[T any] struct {
	free [][]T
	lent [][]T
}

func (p *lentPool[T]) get(n int) []T {
	var buf []T
	if last := len(p.free) - 1; last >= 0 && cap(p.free[last]) >= n {
		buf = p.free[last][:n]
		p.free = p.free[:last]
		clear(buf)
	} else {
		best := -1
		for i, b := range p.free {
			if cap(b) >= n && (best < 0 || cap(b) < cap(p.free[best])) {
				best = i
			}
		}
		if best >= 0 {
			last := len(p.free) - 1
			buf = p.free[best][:n]
			p.free[best] = p.free[last]
			p.free = p.free[:last]
			clear(buf)
		} else {
			buf = make([]T, n)
		}
	}
	p.lent = append(p.lent, buf)
	return buf
}

func (p *lentPool[T]) getEmpty() []T {
	return p.get(0)[:0]
}

// retain replaces the most recently lent header with buf, so append
// growth past the pooled capacity is kept at reclaim. Must follow the
// get that produced buf's original backing with no interleaving get on
// the same pool.
func (p *lentPool[T]) retain(buf []T) {
	if last := len(p.lent) - 1; last >= 0 {
		p.lent[last] = buf
	}
}

func (p *lentPool[T]) reclaim() {
	p.free = append(p.free, p.lent...)
	p.lent = p.lent[:0]
}
