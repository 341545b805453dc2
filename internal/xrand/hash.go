package xrand

import "math/bits"

// k-wise independent hash families via polynomial evaluation over the
// Mersenne prime p = 2^61 - 1. For sketching we need limited-independence
// guarantees (pairwise for subsampling levels, 2k-wise for s-sparse
// recovery fingerprints); polynomial hashing gives exactly k-wise
// independence when the k coefficients are uniform in [0, p).

// MersennePrime61 is 2^61 - 1, the field modulus for PolyHash.
const MersennePrime61 = (1 << 61) - 1

// PolyHash is a k-wise independent hash function h: [2^61-1] -> [2^61-1]
// defined by a degree-(k-1) polynomial with random coefficients.
type PolyHash struct {
	coef []uint64 // degree k-1 polynomial, coef[0] is the constant term
}

// NewPolyHash draws a fresh k-wise independent hash function using r.
// k must be at least 1.
func NewPolyHash(r *RNG, k int) *PolyHash {
	if k < 1 {
		panic("xrand: PolyHash needs k >= 1")
	}
	coef := make([]uint64, k)
	for i := range coef {
		// Rejection-sample uniform values below the prime.
		for {
			v := r.Uint64() & MersennePrime61 // 61 bits
			if v < MersennePrime61 {
				coef[i] = v
				break
			}
		}
	}
	return &PolyHash{coef: coef}
}

// mulmod61 computes a*b mod 2^61-1 using 128-bit intermediate arithmetic.
func mulmod61(a, b uint64) uint64 {
	hi, lo := mul128(a, b)
	// a*b = hi*2^64 + lo. Reduce mod 2^61-1 using 2^61 ≡ 1:
	// split into 61-bit chunks.
	r := (lo & MersennePrime61) + ((lo >> 61) | (hi << 3 & MersennePrime61)) + (hi >> 58)
	r = (r & MersennePrime61) + (r >> 61)
	if r >= MersennePrime61 {
		r -= MersennePrime61
	}
	return r
}

// addmod61 computes a+b mod 2^61-1 for a, b < 2^61-1.
func addmod61(a, b uint64) uint64 {
	s := a + b
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// Hash evaluates the polynomial at x (reduced into the field first).
func (h *PolyHash) Hash(x uint64) uint64 {
	return h.HashMod(x % MersennePrime61)
}

// HashMod evaluates the polynomial at an already-reduced point
// xMod < 2^61-1 — for callers that reduce a key once and share it
// across many hash evaluations (the sketch update kernel). Bit-identical
// to Hash(x) when xMod = x % MersennePrime61. The pairwise (k=2) case —
// every row and level hash in the sketch substrate — is straight-line
// a0 + a1·x, which Horner's loop computes identically.
func (h *PolyHash) HashMod(xMod uint64) uint64 {
	if len(h.coef) == 2 {
		return addmod61(mulmod61(h.coef[1], xMod), h.coef[0])
	}
	acc := uint64(0)
	for i := len(h.coef) - 1; i >= 0; i-- {
		acc = addmod61(mulmod61(acc, xMod), h.coef[i])
	}
	return acc
}

// HashRangeMod maps an already-reduced point (see HashMod) to [0, n)
// with at most one part in 2^61 of bias.
func (h *PolyHash) HashRangeMod(xMod uint64, n int) int {
	if n <= 0 {
		panic("xrand: HashRangeMod with non-positive n")
	}
	return int(h.HashMod(xMod) % uint64(n))
}

// Level returns the subsampling level of x: the number of leading
// successes in a sequence of fair coin flips derived from the hash, i.e.
// Pr[Level(x) >= l] = 2^-l (up to the independence of the family). Used
// for the geometric edge-subsampling G_0 ⊇ G_1 ⊇ ... in sparsifier and
// L0-sampler constructions. The result is capped at max.
func (h *PolyHash) Level(x uint64, max int) int {
	return h.LevelMod(x%MersennePrime61, max)
}

// LevelMod is Level at an already-reduced point (see HashMod). The
// leading-success count is the number of trailing one bits of the hash,
// capped at max — identical to the bit-walk loop it replaces.
func (h *PolyHash) LevelMod(xMod uint64, max int) int {
	if max < 0 {
		max = 0
	}
	l := bits.TrailingZeros64(^h.HashMod(xMod))
	if l > max {
		l = max
	}
	return l
}
