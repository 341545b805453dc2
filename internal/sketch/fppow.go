package sketch

// Fixed-base windowed exponentiation for fingerprint bases (DESIGN.md
// §15). Every cell of an SSparse and every level of an L0 share one
// fingerprint base z, and the update path needs z^key per (key, delta)
// — previously a
// full square-and-multiply (~2·61 mulm) per *cell*. A 4-bit-window
// table of powers of z collapses that to at most one table lookup and
// one mulm per non-zero exponent digit (≤ 15 multiplies for the ≤
// 61-bit keys the sketches accept), computed once per update and shared
// by every cell through updateRaw.
//
// Exactness: GF(2^61−1) arithmetic is exact and mulm always returns the
// canonical representative < p, so z^e is the same field element — the
// same uint64 — however the product is associated. Table entries are
// built by the same mulm the scalar powm uses, and fpPow.Pow is pinned
// bit-identical to powm by TestFpPowMatchesPowm (exhaustive small
// exponents plus randomized and boundary 61/64-bit ones).

const (
	powWindowBits = 4
	powWindowSize = 1 << powWindowBits
	// powWindows covers any uint64 exponent: ceil(64/powWindowBits).
	powWindows = 64 / powWindowBits
)

// fpPow is the fixed-base window table for one fingerprint base:
// win[w][d] = z^(d · 2^(4w)) mod p.
type fpPow struct {
	win [powWindows][powWindowSize]uint64
}

// newFpPow builds the table for base z with powWindows·(powWindowSize−1)
// mulm operations at construction time.
func newFpPow(z uint64) *fpPow {
	t := &fpPow{}
	base := z % prime // z^(2^(4w)) for the current window
	for w := 0; w < powWindows; w++ {
		t.win[w][0] = 1
		for d := 1; d < powWindowSize; d++ {
			t.win[w][d] = mulm(t.win[w][d-1], base)
		}
		base = mulm(t.win[w][powWindowSize-1], base) // base^16
	}
	return t
}

// Pow returns z^e mod p, bit-identical to powm(z, e) for every uint64
// e, in at most powWindows multiplies (zero digits contribute a factor
// of 1 and are skipped).
func (t *fpPow) Pow(e uint64) uint64 {
	r := uint64(1)
	for w := 0; e != 0; w++ {
		if d := e & (powWindowSize - 1); d != 0 {
			r = mulm(r, t.win[w][d])
		}
		e >>= powWindowBits
	}
	return r
}
