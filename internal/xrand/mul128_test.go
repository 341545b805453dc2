package xrand

import "testing"

// mul128Reference is the retired 32-bit-limb schoolbook product, kept
// as the cross-check for the bits.Mul64 replacement: same (hi, lo) for
// every operand pair, so every downstream consumer (mulmod61, Intn's
// Lemire rejection) is bit-identical.
func mul128Reference(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid1 := t & mask
	c1 := t >> 32
	t = aLo*bHi + mid1
	lo |= (t & mask) << 32
	hi = aHi*bHi + c1 + (t >> 32)
	return hi, lo
}

// mulBoundaries are operands at the 32/61/64-bit edges where a limb
// carry bug would surface.
var mulBoundaries = []uint64{
	0, 1, 2,
	1<<32 - 1, 1 << 32, 1<<32 + 1,
	MersennePrime61 - 1, MersennePrime61, MersennePrime61 + 1,
	1<<63 - 1, 1 << 63, 1<<64 - 1,
}

func TestMul128MatchesReference(t *testing.T) {
	for _, a := range mulBoundaries {
		for _, b := range mulBoundaries {
			hi, lo := mul128(a, b)
			rhi, rlo := mul128Reference(a, b)
			if hi != rhi || lo != rlo {
				t.Fatalf("mul128(%d, %d) = (%d, %d), reference (%d, %d)", a, b, hi, lo, rhi, rlo)
			}
		}
	}
	r := New(47)
	for i := 0; i < 100000; i++ {
		a, b := r.Uint64(), r.Uint64()
		hi, lo := mul128(a, b)
		rhi, rlo := mul128Reference(a, b)
		if hi != rhi || lo != rlo {
			t.Fatalf("mul128(%d, %d) = (%d, %d), reference (%d, %d)", a, b, hi, lo, rhi, rlo)
		}
	}
}

func FuzzMul128(f *testing.F) {
	for _, a := range mulBoundaries {
		f.Add(a, a^0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, a, b uint64) {
		hi, lo := mul128(a, b)
		rhi, rlo := mul128Reference(a, b)
		if hi != rhi || lo != rlo {
			t.Fatalf("mul128(%d, %d) = (%d, %d), reference (%d, %d)", a, b, hi, lo, rhi, rlo)
		}
	})
}

// TestHashModMatchesHash pins the reduced-point fast paths — including
// the straight-line degree-1 case the sketch kernel uses — against the
// generic Horner evaluation.
func TestHashModMatchesHash(t *testing.T) {
	r := New(53)
	for _, k := range []int{1, 2, 3, 5} {
		h := NewPolyHash(r.Split(uint64(k)), k)
		for i := 0; i < 20000; i++ {
			x := r.Uint64()
			xMod := x % MersennePrime61
			if got, want := h.HashMod(xMod), h.Hash(x); got != want {
				t.Fatalf("k=%d x=%d: HashMod %d, Hash %d", k, x, got, want)
			}
			for _, max := range []int{0, 1, 7, 40, 64} {
				if got, want := h.LevelMod(xMod, max), legacyLevel(h, x, max); got != want {
					t.Fatalf("k=%d x=%d max=%d: LevelMod %d, legacy %d", k, x, max, got, want)
				}
			}
		}
	}
}

// legacyLevel is the retired bit-walk loop Level replaced with a
// trailing-zeros count.
func legacyLevel(h *PolyHash, x uint64, max int) int {
	v := h.Hash(x)
	l := 0
	for l < max && v&1 == 1 {
		v >>= 1
		l++
	}
	return l
}
