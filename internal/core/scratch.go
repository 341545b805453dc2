package core

import "repro/internal/oddset"

// oracleScratch owns the retained working buffers of the sequential
// refine-and-use loop: the support refineBatch emits, the P_o row table
// of runMiniOracle and the vectors and answers of its packing loop, and
// the per-row, per-vertex and odd-set instance buffers of
// runMicroOracleScratch. One scratch belongs to one solver, and the
// oracle loop is sequential, so nothing locks.
//
// Every buffer has one owner, a field below, and one writer at a time;
// nothing is lent. A buffer is overwritten in place by the next call
// that owns it, which is sound because whatever a call returns is
// consumed before that call runs again: pack.Solve copies its initial
// rows and folds each oracle's row values into its own before the next
// oracle call, answerAccum copies each accepted answer, and
// dualState.Average copies the final one. What outlives the loop is
// never reused: odd-set member lists, which dualState.addZSet keeps, and
// the LP7 witness are allocated fresh.
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

	// The ϱ search of one Oracle-P invocation holds at most three
	// MicroOracle answers at once: its two brackets and the probe
	// between them. Each probe goes into the slot neither bracket
	// holds.
	probes [3]probe
	// Row values of the brackets' combination, the first call's uniform
	// multipliers, and the zero answer's row values.
	combRv, ones, zeroRv []float64

	// answerAccum and combineAnswers backing: one accumulator, one final
	// answer and one combination live per MiniOracle call, and growth
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

// probe is one slot of the ϱ search: the containers a MicroOracle call
// writes its answer's entries into, and that answer's P_o row values.
type probe struct {
	buf oracleAnswer
	rv  []float64
}

// posEntry is one positive-deficit level of a vertex (d_{i,k} > 0).
type posEntry struct {
	k int
	d float64
}
