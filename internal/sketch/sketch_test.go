package sketch

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestFieldArithmetic(t *testing.T) {
	if addm(prime-1, 1) != 0 {
		t.Fatal("addm wrap")
	}
	if subm(0, 1) != prime-1 {
		t.Fatal("subm wrap")
	}
	if mulm(1<<60, 2) != 1 { // 2^61 mod p = 1
		t.Fatal("mulm reduction")
	}
	if powm(3, 0) != 1 || powm(3, 4) != 81 {
		t.Fatal("powm small")
	}
	// Fermat: a^(p-1) = 1.
	if powm(12345, prime-1) != 1 {
		t.Fatal("Fermat failed")
	}
	for _, a := range []uint64{1, 2, 7, 1 << 40, prime - 2} {
		if mulm(a, invm(a)) != 1 {
			t.Fatalf("inverse failed for %d", a)
		}
	}
}

func TestToField(t *testing.T) {
	if toField(5) != 5 {
		t.Fatal("positive")
	}
	if toField(-5) != prime-5 {
		t.Fatal("negative")
	}
	if addm(toField(-5), toField(5)) != 0 {
		t.Fatal("cancellation")
	}
}

func TestOneSparseRecovery(t *testing.T) {
	r := xrand.New(1)
	z := NewFingerprintBase(r)
	c := NewOneSparse(z)
	c.Update(42, 7)
	k, v, ok := c.Recover()
	if !ok || k != 42 || v != 7 {
		t.Fatalf("recover = (%d,%d,%v), want (42,7,true)", k, v, ok)
	}
}

func TestOneSparseNegativeValue(t *testing.T) {
	c := NewOneSparse(NewFingerprintBase(xrand.New(2)))
	c.Update(99, -3)
	k, v, ok := c.Recover()
	if !ok || k != 99 || v != -3 {
		t.Fatalf("recover = (%d,%d,%v), want (99,-3,true)", k, v, ok)
	}
}

func TestOneSparseInsertDelete(t *testing.T) {
	c := NewOneSparse(NewFingerprintBase(xrand.New(3)))
	c.Update(10, 1)
	c.Update(20, 1)
	c.Update(10, -1) // now 1-sparse at 20
	k, v, ok := c.Recover()
	if !ok || k != 20 || v != 1 {
		t.Fatalf("after delete: (%d,%d,%v)", k, v, ok)
	}
	c.Update(20, -1) // zero vector
	if !c.IsZero() {
		t.Fatal("zero vector not detected")
	}
	if _, _, ok := c.Recover(); ok {
		t.Fatal("recovered from zero vector")
	}
}

func TestOneSparseDetectsTwoSparse(t *testing.T) {
	miss := 0
	for trial := 0; trial < 200; trial++ {
		c := NewOneSparse(NewFingerprintBase(xrand.New(uint64(trial + 10))))
		c.Update(uint64(trial*3+1), 1)
		c.Update(uint64(trial*5+2), 1)
		if _, _, ok := c.Recover(); ok {
			miss++
		}
	}
	if miss > 0 {
		t.Fatalf("2-sparse vector passed recovery %d/200 times", miss)
	}
}

func TestOneSparseMergeLinearity(t *testing.T) {
	z := NewFingerprintBase(xrand.New(5))
	a, b := NewOneSparse(z), NewOneSparse(z)
	a.Update(7, 2)
	b.Update(7, 3)
	a.Merge(b)
	k, v, ok := a.Recover()
	if !ok || k != 7 || v != 5 {
		t.Fatalf("merged recover = (%d,%d,%v)", k, v, ok)
	}
}

func TestOneSparseLargeKey(t *testing.T) {
	// Keys near the field size must round-trip.
	c := NewOneSparse(NewFingerprintBase(xrand.New(6)))
	key := uint64(prime - 2)
	c.Update(key, 11)
	k, v, ok := c.Recover()
	if !ok || k != key || v != 11 {
		t.Fatalf("large key recover = (%d,%d,%v)", k, v, ok)
	}
}

func TestSSparseExactRecovery(t *testing.T) {
	r := xrand.New(7)
	spec := NewSSparseSpec(r, 8, 6)
	sk := spec.NewSSparse()
	want := map[uint64]int64{3: 1, 17: -2, 900: 5, 12345: 7, 77: 1}
	for k, v := range want {
		sk.Update(k, v)
	}
	keys, values, ok := sk.Recover()
	if !ok {
		t.Fatal("recovery failed")
	}
	if len(keys) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(keys), len(want))
	}
	for i, k := range keys {
		if want[k] != values[i] {
			t.Fatalf("key %d: value %d, want %d", k, values[i], want[k])
		}
	}
}

func TestSSparseZero(t *testing.T) {
	spec := NewSSparseSpec(xrand.New(8), 4, 4)
	sk := spec.NewSSparse()
	keys, _, ok := sk.Recover()
	if !ok || len(keys) != 0 {
		t.Fatal("zero sketch should recover empty")
	}
	sk.Update(5, 3)
	sk.Update(5, -3)
	keys, _, ok = sk.Recover()
	if !ok || len(keys) != 0 {
		t.Fatal("cancelled sketch should recover empty")
	}
}

func TestSSparseOverflowDetected(t *testing.T) {
	// Far more non-zeros than s: recovery must not return ok with a wrong
	// small answer.
	spec := NewSSparseSpec(xrand.New(9), 4, 6)
	sk := spec.NewSSparse()
	for i := uint64(0); i < 200; i++ {
		sk.Update(i*7+1, 1)
	}
	if _, _, ok := sk.Recover(); ok {
		t.Fatal("overfull sketch claimed successful recovery")
	}
}

func TestSSparseMerge(t *testing.T) {
	spec := NewSSparseSpec(xrand.New(10), 6, 6)
	a, b := spec.NewSSparse(), spec.NewSSparse()
	a.Update(1, 1)
	a.Update(2, 2)
	b.Update(2, -2)
	b.Update(3, 3)
	a.Merge(b)
	keys, values, ok := a.Recover()
	if !ok || len(keys) != 2 {
		t.Fatalf("merge recover: ok=%v keys=%v", ok, keys)
	}
	if keys[0] != 1 || values[0] != 1 || keys[1] != 3 || values[1] != 3 {
		t.Fatalf("merge content wrong: %v %v", keys, values)
	}
}

func TestSSparseMergeDifferentSpecsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a := NewSSparseSpec(xrand.New(11), 4, 4).NewSSparse()
	b := NewSSparseSpec(xrand.New(12), 4, 4).NewSSparse()
	a.Merge(b)
}

func TestSSparseProperty(t *testing.T) {
	// Random <=s-sparse vectors with inserts and deletes recover exactly.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		spec := NewSSparseSpec(r.Split(1), 10, 8)
		sk := spec.NewSSparse()
		want := map[uint64]int64{}
		for i := 0; i < 10; i++ {
			k := uint64(r.Intn(100000))
			v := int64(r.Intn(9) - 4)
			sk.Update(k, v)
			want[k] += v
			if want[k] == 0 {
				delete(want, k)
			}
		}
		keys, values, ok := sk.Recover()
		if !ok || len(keys) != len(want) {
			return false
		}
		for i, k := range keys {
			if want[k] != values[i] {
				return false
			}
		}
		return true
	}
	// Recovery is probabilistic (failure probability exponentially small
	// in rows but nonzero), so the input corpus is pinned: a time-seeded
	// corpus occasionally hits a genuinely undecodable input and flakes.
	cfg := &quick.Config{MaxCount: 60, Rand: xrand.Std(1)}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestL0SampleReturnsSupport(t *testing.T) {
	r := xrand.New(13)
	spec := NewL0Spec(r, 17, 10, 8)
	sk := spec.NewL0()
	support := map[uint64]int64{}
	for i := 0; i < 500; i++ {
		k := uint64(i*13 + 5)
		sk.Update(k, 2)
		support[k] = 2
	}
	k, v, ok := sk.Sample()
	if !ok {
		t.Fatal("sample failed on non-zero vector")
	}
	if support[k] != v {
		t.Fatalf("sampled (%d,%d) not in support", k, v)
	}
}

func TestL0SampleAfterDeletions(t *testing.T) {
	spec := NewL0Spec(xrand.New(14), 17, 10, 8)
	sk := spec.NewL0()
	for i := uint64(0); i < 300; i++ {
		sk.Update(i+1, 1)
	}
	for i := uint64(0); i < 300; i++ {
		if i+1 != 250 {
			sk.Update(i+1, -1)
		}
	}
	k, v, ok := sk.Sample()
	if !ok || k != 250 || v != 1 {
		t.Fatalf("sample after deletions = (%d,%d,%v), want (250,1,true)", k, v, ok)
	}
}

func TestL0ZeroVector(t *testing.T) {
	spec := NewL0Spec(xrand.New(15), 10, 8, 6)
	sk := spec.NewL0()
	if _, _, ok := sk.Sample(); ok {
		t.Fatal("sampled from zero vector")
	}
}

func TestL0MergeSamplesSum(t *testing.T) {
	spec := NewL0Spec(xrand.New(16), 17, 10, 8)
	a, b := spec.NewL0(), spec.NewL0()
	// a and b share heavy overlap that cancels; only key 42 survives.
	for i := uint64(1); i <= 200; i++ {
		a.Update(i, 1)
		if i != 42 {
			b.Update(i, -1)
		}
	}
	a.Merge(b)
	k, v, ok := a.Sample()
	if !ok || k != 42 || v != 1 {
		t.Fatalf("merged sample = (%d,%d,%v), want (42,1,true)", k, v, ok)
	}
}

func TestL0SuccessRate(t *testing.T) {
	// Decoding should succeed for the vast majority of random supports.
	fail := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		r := xrand.New(uint64(trial) + 1000)
		spec := NewL0Spec(r, 20, 12, 8)
		sk := spec.NewL0()
		n := 1 + r.Intn(2000)
		for i := 0; i < n; i++ {
			sk.Update(uint64(r.Intn(1<<20))+1, 1)
		}
		if _, _, ok := sk.Sample(); !ok {
			fail++
		}
	}
	if fail > 2 {
		t.Fatalf("L0 sampling failed %d/%d times", fail, trials)
	}
}

func TestL0Words(t *testing.T) {
	spec := NewL0Spec(xrand.New(17), 20, 8, 6)
	sk := spec.NewL0()
	if sk.Words() <= 0 {
		t.Fatal("Words must be positive")
	}
	// levels * rows * buckets * 4
	want := spec.levels * 6 * 16 * 4
	if sk.Words() != want {
		t.Fatalf("Words = %d, want %d", sk.Words(), want)
	}
}
