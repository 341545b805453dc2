// Package sketch implements the linear-sketching substrate of the paper:
// exact 1-sparse recovery, s-sparse recovery, ℓ0-samplers supporting
// insertions and deletions, and AGM-style vertex-incidence sketches whose
// linear combination over a vertex set samples edges across the cut
// (footnote 1 of the paper; Ahn–Guha–McGregor SODA'12 / PODS'12).
//
// All sketches are linear: Update(key, Δ) is a linear map of the implicit
// vector, so Merge(a, b) equals the sketch of the vector sum. Keys are
// opaque uint64 identifiers < 2^61-1 (graph pair keys with n < 2^29 fit).
package sketch

import (
	"math/bits"

	"repro/internal/xrand"
)

const prime = xrand.MersennePrime61

// mod arithmetic helpers over GF(2^61-1).
func addm(a, b uint64) uint64 {
	s := a + b
	if s >= prime {
		s -= prime
	}
	return s
}

func subm(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + prime - b
}

func mulm(a, b uint64) uint64 {
	hi, lo := mul128(a, b)
	r := (lo & prime) + ((lo >> 61) | (hi << 3 & prime)) + (hi >> 58)
	r = (r & prime) + (r >> 61)
	if r >= prime {
		r -= prime
	}
	return r
}

// mul128 returns the exact 128-bit product of a and b. bits.Mul64
// compiles to the single MUL instruction; the retired 32-bit-limb
// schoolbook version lives on as mul128Reference in the tests, which
// pin exact (hi, lo) equality on boundary operands and under fuzzing.
func mul128(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// powm computes a^e mod prime by square-and-multiply (~2·61 mulm). It
// is the scalar reference: hot paths with a fixed base use an fpPow
// window table instead (bit-identical, see fppow.go), which is what the
// fieldhot analyzer enforces.
func powm(a, e uint64) uint64 {
	r := uint64(1)
	a %= prime
	for e > 0 {
		if e&1 == 1 {
			r = mulm(r, a)
		}
		a = mulm(a, a)
		e >>= 1
	}
	return r
}

// invm computes the multiplicative inverse mod prime (prime is prime, so
// a^(p-2)).
func invm(a uint64) uint64 {
	//lint:fieldhot the base varies per call, so no fixed-base window table applies; cost is per decoded non-zero cell, not per update
	return powm(a, prime-2)
}

// toField maps a signed delta into the field.
func toField(delta int64) uint64 {
	if delta >= 0 {
		return uint64(delta) % prime
	}
	return prime - uint64(-delta)%prime
}

// OneSparse is an exact 1-sparse recovery cell. It maintains three field
// values — the sum of values, the sum of key·value, and a fingerprint
// Σ value·z^key — for the implicit vector it has absorbed. If the vector
// is exactly 1-sparse the (key, value) pair is recovered exactly; if it is
// not, recovery fails (detected by the fingerprint) except with
// probability < 2^-40 over the choice of z.
type OneSparse struct {
	z       uint64 // fingerprint base, shared across mergeable cells
	sumVal  uint64 // Σ value (mod p)
	sumKV   uint64 // Σ key·value (mod p)
	fingerp uint64 // Σ value·z^key (mod p)
}

// NewOneSparse creates a cell with fingerprint base z (draw once per
// sketch family with NewFingerprintBase).
func NewOneSparse(z uint64) OneSparse { return OneSparse{z: z} }

// NewFingerprintBase draws a random fingerprint base.
func NewFingerprintBase(r *xrand.RNG) uint64 {
	for {
		z := r.Uint64() & prime
		if z > 1 && z < prime {
			return z
		}
	}
}

// updateRaw is the hoisted update kernel: the caller has computed
// keyMod = key % prime, d = toField(delta) and zPowKey = z^key once and
// shares them across every cell that absorbs the update (all cells of
// an SSparse row set, all levels of an L0, both endpoint rows of a bank
// edge). Two mulm and three addm per cell.
func (c *OneSparse) updateRaw(keyMod, d, zPowKey uint64) {
	c.sumVal = addm(c.sumVal, d)
	c.sumKV = addm(c.sumKV, mulm(keyMod, d))
	c.fingerp = addm(c.fingerp, mulm(d, zPowKey))
}

// Merge absorbs another cell (must share the same z).
func (c *OneSparse) Merge(o OneSparse) {
	if c.z != o.z {
		panic("sketch: merging OneSparse cells with different fingerprint bases")
	}
	c.sumVal = addm(c.sumVal, o.sumVal)
	c.sumKV = addm(c.sumKV, o.sumKV)
	c.fingerp = addm(c.fingerp, o.fingerp)
}

// IsZero reports whether the cell looks like the zero vector.
func (c *OneSparse) IsZero() bool {
	return c.sumVal == 0 && c.sumKV == 0 && c.fingerp == 0
}

// recoverFast attempts exact 1-sparse recovery. On success it returns
// the key and the signed value. Values are interpreted in (-p/2, p/2):
// sketches in this repository always hold small counts, so the
// embedding is faithful. z^k comes from the spec's fixed-base window
// table; the field is exact, so the verified fingerprint — and hence
// the accept/reject decision and the returned pair — is bit-identical
// to the square-and-multiply reference the tests keep.
func (c *OneSparse) recoverFast(zp *fpPow) (key uint64, value int64, ok bool) {
	if c.sumVal == 0 {
		return 0, 0, false // zero vector, or value-sum cancellation
	}
	k := mulm(c.sumKV, invm(c.sumVal))
	if mulm(c.sumVal, zp.Pow(k)) != c.fingerp {
		return 0, 0, false
	}
	v := c.sumVal
	if v > prime/2 {
		return k, -int64(prime - v), true
	}
	return k, int64(v), true
}
