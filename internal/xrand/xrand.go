// Package xrand provides deterministic, splittable pseudorandom number
// generation and k-wise independent hash families used throughout the
// sketching and sparsification substrates.
//
// Everything in this repository that uses randomness takes an explicit
// seed so that experiments are reproducible run to run. The generator is
// SplitMix64, which is fast, has a 64-bit state, and — crucially for
// "splittable" use — produces independent child streams by seeding a
// child with a strongly mixed function of the parent stream.
package xrand

import (
	"math"
	"math/bits"
)

// splitmix64 advances the state and returns the next output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 returns a strongly mixed function of x (the SplitMix64 finalizer).
// It is used to derive independent seeds from identifiers.
func Mix64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a deterministic pseudorandom generator. The zero value is a valid
// generator seeded with 0; prefer New to make seeds explicit.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: Mix64(seed)}
}

// Split returns a child generator whose stream is independent of the
// parent's subsequent outputs. Distinct labels give distinct children.
func (r *RNG) Split(label uint64) *RNG {
	return &RNG{state: Mix64(splitmix64(&r.state) ^ Mix64(label^0xa5a5a5a5a5a5a5a5))}
}

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return splitmix64(&r.state) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Int63 returns a uniform non-negative int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with rate 1.
func (r *RNG) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Zipfian is a truncated Zipf sampler over {1..n} with exponent s.
type Zipfian struct {
	cdf []float64
}

// NewZipf precomputes the CDF for a Zipf distribution over {1..n}.
func NewZipf(n int, s float64) *Zipfian {
	if n < 1 {
		panic("xrand: Zipf with n < 1")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipfian{cdf: cdf}
}

// Draw samples one value in [1, len(cdf)].
func (z *Zipfian) Draw(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// mul128 returns the 128-bit product of a and b as (hi, lo). bits.Mul64
// compiles to the single MUL instruction; the retired 32-bit-limb
// schoolbook version lives on as mul128Reference in the tests, which
// pin exact (hi, lo) equality on boundary operands and under fuzzing.
func mul128(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}
