package sketch

import "repro/internal/graph"

// Per-call reference spellings of the update and decode paths, and the
// edge-fed bank of the tests. Every production caller updates through
// UpdateRows (the MapReduce reducers) and decodes through recoverFast;
// these entry points exist for the tests and benchmarks that pin those
// kernels against them and feed sketches by hand. A test bank starts as
// NewBank's zeroed columns and takes its edges through UpdateRows, so
// every test bank goes through production's update path.

// Update adds delta to the implicit vector at key. Keys must be < 2^61-1.
//
// This is the scalar entry point for bare cells, paying a full powm per
// call; spec-fed paths (SSparse, L0, UpdateRows) hoist key%prime,
// toField and z^key once per update and fan out through updateRaw. Both
// paths are bit-identical, pinned by TestUpdateRawMatchesScalar.
func (c *OneSparse) Update(key uint64, delta int64) {
	d := toField(delta)
	c.updateRaw(key%prime, d, powm(c.z, key))
}

// Recover attempts exact 1-sparse recovery. On success it returns the key
// and the signed value. Values are interpreted in (-p/2, p/2): sketches in
// this repository always hold small counts, so the embedding is faithful.
func (c *OneSparse) Recover() (key uint64, value int64, ok bool) {
	if c.sumVal == 0 {
		return 0, 0, false // zero vector, or value-sum cancellation
	}
	k := mulm(c.sumKV, invm(c.sumVal))
	// Verify the fingerprint: value·z^k must equal the stored fingerprint.
	if mulm(c.sumVal, powm(c.z, k)) != c.fingerp {
		return 0, 0, false
	}
	v := c.sumVal
	if v > prime/2 {
		return k, -int64(prime - v), true
	}
	return k, int64(v), true
}

// Update adds delta at key in the implicit vector. The key reduction,
// field delta and z^key are computed once and shared by every
// subsampling level (all levels come from one SSparseSpec, hence one
// fingerprint base).
func (s *L0) Update(key uint64, delta int64) {
	s.updateRaw(key%prime, toField(delta), s.spec.sspec.zpow.Pow(key))
}

// newBank returns a bank of zeroed columns.
func newBank(spec *IncidenceSpec) *Bank {
	return spec.NewBank(make([][]*L0, spec.n))
}

// update adds delta for the edge {u, v} to every repetition: +delta in
// the smaller endpoint's column and −delta in the larger's, each through
// UpdateRows. Panics on self loops.
func (b *Bank) update(u, v int32, delta int64) {
	if u == v {
		panic("sketch: self loop")
	}
	key := graph.KeyOf(u, v)
	UpdateRows(b.cols[min(u, v)], key, delta)
	UpdateRows(b.cols[max(u, v)], key, -delta)
}

// AddEdge inserts the undirected edge {u, v} into every repetition.
func (b *Bank) AddEdge(u, v int32) { b.update(u, v, 1) }
