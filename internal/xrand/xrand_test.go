package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split(1)
	c2 := r.Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children with different labels produced equal first outputs")
	}
	// Splitting with the same label after state advance must differ too.
	r2 := New(7)
	d1 := r2.Split(1)
	d2 := r2.Split(1)
	if d1.Uint64() == d2.Uint64() {
		t.Fatal("sequential splits with same label produced equal outputs")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(6)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %f far from 0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(8)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate %f", float64(hits)/n)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestExpPositiveAndMean(t *testing.T) {
	r := New(10)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp()
		if v < 0 {
			t.Fatal("Exp returned negative")
		}
		sum += v
	}
	if math.Abs(sum/n-1) > 0.02 {
		t.Fatalf("Exp mean %f far from 1", sum/n)
	}
}

func TestZipfRangeAndMonotonicity(t *testing.T) {
	r := New(12)
	z := NewZipf(50, 1.1)
	counts := make([]int, 51)
	for i := 0; i < 100000; i++ {
		v := z.Draw(r)
		if v < 1 || v > 50 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[10] || counts[10] <= counts[50] {
		t.Fatalf("Zipf counts not decreasing: c1=%d c10=%d c50=%d", counts[1], counts[10], counts[50])
	}
}

func TestMul128(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestMulmod61MatchesBigOnSmall(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := uint64(a), uint64(b)
		return mulmod61(x, y) == (x*y)%MersennePrime61
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulmod61Large(t *testing.T) {
	// (2^61-2)^2 mod (2^61-1) = (-1)^2 = 1
	if got := mulmod61(MersennePrime61-1, MersennePrime61-1); got != 1 {
		t.Fatalf("(p-1)^2 mod p = %d, want 1", got)
	}
	// (2^60)*(2) mod p = 2^61 mod p = 1
	if got := mulmod61(1<<60, 2); got != 1 {
		t.Fatalf("2^61 mod p = %d, want 1", got)
	}
}

func TestPolyHashDeterministic(t *testing.T) {
	h := NewPolyHash(New(77), 4)
	for x := uint64(0); x < 100; x++ {
		if h.Hash(x) != h.Hash(x) {
			t.Fatal("PolyHash not deterministic")
		}
	}
}

func TestPolyHashPairwiseCollisions(t *testing.T) {
	// For a pairwise-independent family the collision probability over a
	// range of n buckets is ~1/n; check it is not wildly off.
	r := New(13)
	h := NewPolyHash(r, 2)
	const keys = 2000
	const buckets = 1 << 16
	seen := map[int]int{}
	coll := 0
	for x := uint64(0); x < keys; x++ {
		b := h.HashRangeMod(x, buckets) // x < 2^61 is already reduced
		coll += seen[b]
		seen[b]++
	}
	// Expected collisions ~ keys^2/(2*buckets) ≈ 30.5.
	if coll > 200 {
		t.Fatalf("too many collisions: %d", coll)
	}
}

func TestPolyHashRange(t *testing.T) {
	h := NewPolyHash(New(14), 3)
	for x := uint64(0); x < 1000; x++ {
		v := h.HashRangeMod(x, 17)
		if v < 0 || v >= 17 {
			t.Fatalf("HashRangeMod out of bounds: %d", v)
		}
	}
}

func TestLevelDistribution(t *testing.T) {
	h := NewPolyHash(New(15), 2)
	const n = 1 << 16
	counts := make([]int, 20)
	for x := uint64(0); x < n; x++ {
		counts[h.Level(x, 19)]++
	}
	// Level 0 should hold about half the keys; level 1 about a quarter.
	if math.Abs(float64(counts[0])/n-0.5) > 0.05 {
		t.Fatalf("level 0 fraction %f", float64(counts[0])/n)
	}
	if math.Abs(float64(counts[1])/n-0.25) > 0.05 {
		t.Fatalf("level 1 fraction %f", float64(counts[1])/n)
	}
}

func TestLevelCap(t *testing.T) {
	h := NewPolyHash(New(16), 2)
	for x := uint64(0); x < 10000; x++ {
		if h.Level(x, 3) > 3 {
			t.Fatal("Level exceeded cap")
		}
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for x := uint64(0); x < 10000; x++ {
		v := Mix64(x)
		if seen[v] {
			t.Fatalf("Mix64 collision at %d", x)
		}
		seen[v] = true
	}
}
