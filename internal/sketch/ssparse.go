package sketch

import "repro/internal/xrand"

// SSparseSpec fixes the shared randomness (bucket hash functions and the
// fingerprint base) for a family of mergeable s-sparse sketches. Two
// sketches can be merged only if they were created from the same spec.
type SSparseSpec struct {
	s       int // sparsity target
	rows    int // independent repetitions
	buckets int // buckets per row (2s)
	hashes  []*xrand.PolyHash
	z       uint64
	zpow    *fpPow // fixed-base window table for z (fppow.go)
}

// NewSSparseSpec creates a spec for recovering vectors with at most s
// non-zeros, with failure probability exponentially small in rows.
func NewSSparseSpec(r *xrand.RNG, s, rows int) *SSparseSpec {
	if s < 1 {
		s = 1
	}
	if rows < 1 {
		rows = 1
	}
	spec := &SSparseSpec{
		s:       s,
		rows:    rows,
		buckets: 2 * s,
		z:       NewFingerprintBase(r),
	}
	spec.zpow = newFpPow(spec.z)
	for i := 0; i < rows; i++ {
		spec.hashes = append(spec.hashes, xrand.NewPolyHash(r.Split(uint64(i)), 2))
	}
	return spec
}

// SSparse is a mergeable sketch that exactly recovers implicit vectors
// with at most s non-zero entries (with high probability).
type SSparse struct {
	spec  *SSparseSpec
	cells []OneSparse // rows * buckets
}

// NewSSparse returns a zeroed sketch for the spec.
func (spec *SSparseSpec) NewSSparse() *SSparse {
	cells := make([]OneSparse, spec.rows*spec.buckets)
	for i := range cells {
		cells[i] = NewOneSparse(spec.z)
	}
	return &SSparse{spec: spec, cells: cells}
}

// Reset zeroes the sketch in place — every cell back to the empty
// OneSparse of the spec's fingerprint base — so the allocation can be
// reused for a fresh implicit vector.
func (sk *SSparse) Reset() {
	for i := range sk.cells {
		sk.cells[i] = NewOneSparse(sk.spec.z)
	}
}

// Update adds delta at key: the per-(key, delta) invariants — the key
// reduction, the field delta and z^key — are computed once and shared
// by every row's cell through updateRaw.
func (sk *SSparse) Update(key uint64, delta int64) {
	sk.updateRaw(key%prime, toField(delta), sk.spec.zpow.Pow(key))
}

// updateRaw fans one hoisted update out to every row: the degree-1 row
// hash a0 + a1·x picks the bucket and the cell kernel absorbs the
// precomputed (keyMod, d, zPowKey) triple.
func (sk *SSparse) updateRaw(keyMod, d, zPowKey uint64) {
	spec := sk.spec
	for row := 0; row < spec.rows; row++ {
		b := spec.hashes[row].HashRangeMod(keyMod, spec.buckets)
		sk.cells[row*spec.buckets+b].updateRaw(keyMod, d, zPowKey)
	}
}

// Merge absorbs another sketch from the same spec.
func (sk *SSparse) Merge(o *SSparse) {
	if sk.spec != o.spec {
		panic("sketch: merging SSparse sketches from different specs")
	}
	for i := range sk.cells {
		sk.cells[i].Merge(o.cells[i])
	}
}

// Clone returns an independent copy.
func (sk *SSparse) Clone() *SSparse {
	c := &SSparse{spec: sk.spec, cells: append([]OneSparse(nil), sk.cells...)}
	return c
}

// Recover attempts to decode the non-zero entries. If the implicit vector
// has at most s non-zeros, it is returned exactly (whp). If more, the
// decode either returns ok=false or a subset of entries that passed their
// fingerprints; callers relying on exactness should check len <= s and
// use independent verification where needed. Entries are sorted by key.
func (sk *SSparse) Recover() (keys []uint64, values []int64, ok bool) {
	spec := sk.spec
	acc := getRecoverAccum()
	defer putRecoverAccum(acc)
	corrupt := false
	for row := 0; row < spec.rows; row++ {
		for b := 0; b < spec.buckets; b++ {
			cell := &sk.cells[row*spec.buckets+b]
			if cell.IsZero() {
				continue
			}
			k, v, cok := cell.recoverFast(spec.zpow)
			if !cok {
				corrupt = true // bucket holds >= 2 colliding keys
				continue
			}
			if acc.add(k, v) {
				return nil, nil, false // inconsistent recovery: not s-sparse
			}
		}
	}
	if len(acc.keys) == 0 {
		return nil, nil, !corrupt // all-zero only if no bucket was corrupt
	}
	if len(acc.keys) > spec.s {
		return nil, nil, false
	}
	// Verify: replay the recovered entries through fresh cells and compare
	// against every row. This catches the case where collisions hid a key
	// in all rows.
	if corrupt {
		check := spec.NewSSparse()
		for i, k := range acc.keys {
			check.Update(k, acc.vals[i])
		}
		for i := range sk.cells {
			if sk.cells[i] != check.cells[i] {
				return nil, nil, false
			}
		}
	}
	keys = append([]uint64(nil), acc.keys...)
	values = append([]int64(nil), acc.vals...)
	return keys, values, true
}
