package sketch

// Per-call reference spellings of the update and decode paths. Every
// production caller updates through the hoisted updateRaw kernels (the
// bank builders, UpdateRows) and decodes through recoverFast; these
// entry points exist for the tests and benchmarks that pin those
// kernels against them and feed sketches by hand.

// Update adds delta to the implicit vector at key. Keys must be < 2^61-1.
//
// This is the scalar entry point for bare cells, paying a full powm per
// call; spec-fed paths (SSparse, L0, Bank) hoist key%prime, toField and
// z^key once per update and fan out through updateRaw. Both paths are
// bit-identical, pinned by TestUpdateRawMatchesScalar.
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

// AddEdge inserts the undirected edge {u, v} into every repetition.
func (b *Bank) AddEdge(u, v int32) { b.update(u, v, 1) }
