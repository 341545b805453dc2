package sketch

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// The batched update kernel (fppow.go, updateRaw) must be bit-identical
// to the scalar square-and-multiply path it replaced: the field is
// exact, so z^key — and every sketch word downstream of it — is the
// same uint64 however it is computed. These tests pin that equality at
// every layer: the window table vs powm, the hoisted cell kernel vs the
// legacy per-cell Update, and UpdateRows, the reducers' entry point, vs
// per-row and per-endpoint scalar updates.

func TestFpPowMatchesPowm(t *testing.T) {
	r := xrand.New(42)
	bases := []uint64{2, 3, prime - 1, prime / 2}
	for i := 0; i < 4; i++ {
		bases = append(bases, NewFingerprintBase(r))
	}
	boundary := []uint64{
		0, 1, 2, 15, 16, 17, 63, 64,
		1<<32 - 1, 1 << 32, 1<<32 + 1,
		prime - 2, prime - 1, prime, prime + 1,
		1 << 61, 1<<61 + 1, 1<<63 - 1, 1 << 63, 1<<64 - 1,
	}
	for _, z := range bases {
		zp := newFpPow(z)
		for e := uint64(0); e < 4096; e++ {
			if got, want := zp.Pow(e), powm(z, e); got != want {
				t.Fatalf("z=%d e=%d: table %d, powm %d", z, e, got, want)
			}
		}
		for _, e := range boundary {
			if got, want := zp.Pow(e), powm(z, e); got != want {
				t.Fatalf("z=%d boundary e=%d: table %d, powm %d", z, e, got, want)
			}
		}
		for i := 0; i < 2000; i++ {
			e := r.Uint64() & prime // 61-bit exponents: the key universe
			if got, want := zp.Pow(e), powm(z, e); got != want {
				t.Fatalf("z=%d random e=%d: table %d, powm %d", z, e, got, want)
			}
			e = r.Uint64() // full 64-bit exponents
			if got, want := zp.Pow(e), powm(z, e); got != want {
				t.Fatalf("z=%d random64 e=%d: table %d, powm %d", z, e, got, want)
			}
		}
	}
}

// legacySSparseUpdate is the pre-kernel SSparse.Update: per-cell scalar
// Update, each cell paying its own key reduction, toField and powm.
func legacySSparseUpdate(sk *SSparse, key uint64, delta int64) {
	spec := sk.spec
	for row := 0; row < spec.rows; row++ {
		b := spec.hashes[row].HashRangeMod(key%xrand.MersennePrime61, spec.buckets)
		sk.cells[row*spec.buckets+b].Update(key, delta)
	}
}

// legacyL0Update is the pre-kernel L0.Update: per-level legacy SSparse
// updates under the scalar cell path.
func legacyL0Update(s *L0, key uint64, delta int64) {
	maxLevel := s.spec.levelHash.Level(key, s.spec.levels-1)
	for l := 0; l <= maxLevel; l++ {
		legacySSparseUpdate(s.levels[l], key, delta)
	}
}

// legacyBankUpdate is the pre-kernel bank update: per-repetition,
// per-endpoint legacy L0 updates.
func legacyBankUpdate(b *Bank, u, v int32, delta int64) {
	key := graph.KeyOf(u, v)
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	for r := range b.cols[lo] {
		legacyL0Update(b.cols[lo][r], key, delta)
		legacyL0Update(b.cols[hi][r], key, -delta)
	}
}

func randomUpdates(r *xrand.RNG, n int) ([]uint64, []int64) {
	keys := make([]uint64, n)
	deltas := make([]int64, n)
	for i := range keys {
		switch r.Intn(4) {
		case 0:
			keys[i] = uint64(r.Intn(64)) // collision-heavy small keys
		case 1:
			keys[i] = r.Uint64() % (1 << 32)
		default:
			keys[i] = r.Uint64() % prime // full key universe
		}
		deltas[i] = int64(r.Intn(9)) - 4
		if deltas[i] == 0 {
			deltas[i] = 1
		}
	}
	return keys, deltas
}

func TestUpdateRawMatchesScalar(t *testing.T) {
	r := xrand.New(7)
	keys, deltas := randomUpdates(r, 600)

	// Bare cell: hoisted kernel vs the scalar Update reference.
	z := NewFingerprintBase(r)
	zp := newFpPow(z)
	scalar, hoisted := NewOneSparse(z), NewOneSparse(z)
	for i, k := range keys {
		scalar.Update(k, deltas[i])
		hoisted.updateRaw(k%prime, toField(deltas[i]), zp.Pow(k))
		if scalar != hoisted {
			t.Fatalf("OneSparse diverged after update %d: %+v vs %+v", i, scalar, hoisted)
		}
	}

	// SSparse: kernel Update vs the legacy per-cell path.
	sspec := NewSSparseSpec(r.Split(1), 8, 6)
	skNew, skOld := sspec.NewSSparse(), sspec.NewSSparse()
	for i, k := range keys {
		skNew.Update(k, deltas[i])
		legacySSparseUpdate(skOld, k, deltas[i])
	}
	if !reflect.DeepEqual(skNew.cells, skOld.cells) {
		t.Fatal("SSparse kernel path diverged from legacy per-cell path")
	}

	// L0: kernel Update vs the legacy per-level path.
	lspec := NewL0Spec(r.Split(2), 20, 8, 6)
	l0New, l0Old := lspec.NewL0(), lspec.NewL0()
	for i, k := range keys {
		l0New.Update(k, deltas[i])
		legacyL0Update(l0Old, k, deltas[i])
	}
	for l := range l0New.levels {
		if !reflect.DeepEqual(l0New.levels[l].cells, l0Old.levels[l].cells) {
			t.Fatalf("L0 level %d diverged from legacy path", l)
		}
	}

	// Bank: endpoint updates through UpdateRows vs the legacy loop,
	// including deletions.
	ispec := NewIncidenceSpec(r.Split(3), 64, 4, 8, 6)
	bankNew, bankOld := newBank(ispec), newBank(ispec)
	for i := 0; i < 300; i++ {
		u := int32(r.Intn(64))
		v := int32(r.Intn(64))
		if u == v {
			continue
		}
		delta := int64(1)
		if i%5 == 4 {
			delta = -1
		}
		bankNew.update(u, v, delta)
		legacyBankUpdate(bankOld, u, v, delta)
	}
	if !reflect.DeepEqual(bankNew.cols, bankOld.cols) {
		t.Fatal("Bank kernel path diverged from legacy per-endpoint path")
	}

	// UpdateRows: the multi-repetition helper vs per-row scalar updates.
	rows := make([]*L0, ispec.reps)
	rowsOld := make([]*L0, ispec.reps)
	for rep := range rows {
		rows[rep] = ispec.SpecAt(rep).NewL0()
		rowsOld[rep] = ispec.SpecAt(rep).NewL0()
	}
	for i, k := range keys[:200] {
		UpdateRows(rows, k, deltas[i])
		for rep := range rowsOld {
			legacyL0Update(rowsOld[rep], k, deltas[i])
		}
	}
	if !reflect.DeepEqual(rows, rowsOld) {
		t.Fatal("UpdateRows diverged from per-row legacy updates")
	}
}

// legacyRecover is the pre-accumulator SSparse.Recover: a per-decode
// map plus a final sort, kept as the behavioral reference.
func legacyRecover(sk *SSparse) (keys []uint64, values []int64, ok bool) {
	spec := sk.spec
	found := make(map[uint64]int64)
	corrupt := false
	for row := 0; row < spec.rows; row++ {
		for b := 0; b < spec.buckets; b++ {
			cell := &sk.cells[row*spec.buckets+b]
			if cell.IsZero() {
				continue
			}
			k, v, cok := cell.Recover()
			if !cok {
				corrupt = true
				continue
			}
			if prev, seen := found[k]; seen && prev != v {
				return nil, nil, false
			}
			found[k] = v
		}
	}
	if len(found) == 0 {
		return nil, nil, !corrupt
	}
	if len(found) > spec.s {
		return nil, nil, false
	}
	if corrupt {
		check := spec.NewSSparse()
		for k, v := range found {
			check.Update(k, v)
		}
		for i := range sk.cells {
			if sk.cells[i] != check.cells[i] {
				return nil, nil, false
			}
		}
	}
	keys = make([]uint64, 0, len(found))
	for k := range found {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	values = make([]int64, len(keys))
	for i, k := range keys {
		values[i] = found[k]
	}
	return keys, values, true
}

func TestRecoverMatchesLegacyMapDecode(t *testing.T) {
	r := xrand.New(23)
	for trial := 0; trial < 200; trial++ {
		spec := NewSSparseSpec(r.Split(uint64(trial)), 8, 5)
		sk := spec.NewSSparse()
		support := r.Intn(20) // sparse, boundary, and overloaded decodes
		for i := 0; i < support; i++ {
			sk.Update(r.Uint64()%prime, int64(r.Intn(7))-3+1)
		}
		gk, gv, gok := sk.Recover()
		wk, wv, wok := legacyRecover(sk)
		if gok != wok || !reflect.DeepEqual(gk, wk) || !reflect.DeepEqual(gv, wv) {
			t.Fatalf("trial %d: Recover (%v %v %v) != legacy (%v %v %v)",
				trial, gk, gv, gok, wk, wv, wok)
		}
	}
}

func TestRecoverAccum(t *testing.T) {
	var a recoverAccum
	if a.add(30, 3) || a.add(10, 1) || a.add(20, -2) {
		t.Fatal("unexpected conflict on fresh keys")
	}
	if a.add(20, -2) {
		t.Fatal("re-adding an identical pair must not conflict")
	}
	if !a.add(20, 5) {
		t.Fatal("same key, different value must conflict")
	}
	wantK := []uint64{10, 20, 30}
	wantV := []int64{1, -2, 3}
	if !reflect.DeepEqual(a.keys, wantK) || !reflect.DeepEqual(a.vals, wantV) {
		t.Fatalf("accumulator not key-sorted: %v %v", a.keys, a.vals)
	}
	putRecoverAccum(&a)
	b := getRecoverAccum()
	if len(b.keys) != 0 || len(b.vals) != 0 {
		t.Fatal("pooled accumulator returned non-empty")
	}
}

// TestUpdatePathsAllocationFlat asserts the steady-state update kernel
// never touches the allocator, at every entry point.
func TestUpdatePathsAllocationFlat(t *testing.T) {
	r := xrand.New(31)
	sspec := NewSSparseSpec(r.Split(1), 8, 6)
	sk := sspec.NewSSparse()
	lspec := NewL0Spec(r.Split(2), 20, 8, 6)
	l0 := lspec.NewL0()
	ispec := NewIncidenceSpec(r.Split(3), 64, 4, 8, 6)
	rows := make([]*L0, ispec.reps)
	for rep := range rows {
		rows[rep] = ispec.SpecAt(rep).NewL0()
	}
	keys, _ := randomUpdates(r.Split(4), 128)

	cases := []struct {
		name string
		fn   func()
	}{
		{"SSparse.Update", func() { sk.Update(keys[0], 1) }},
		{"L0.Update", func() { l0.Update(keys[1], 1) }},
		{"UpdateRows", func() { UpdateRows(rows, keys[2], -1) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(10, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

// mul128Reference is the retired 32-bit-limb schoolbook product, kept
// as the cross-check for the bits.Mul64 replacement.
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
	prime - 1, prime, prime + 1,
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
	r := xrand.New(47)
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

func TestFpPowWindowGeometry(t *testing.T) {
	// The table must cover any uint64 exponent: windows × bits = 64.
	if powWindows*powWindowBits != 64 {
		t.Fatalf("window geometry %d×%d does not cover 64 bits", powWindows, powWindowBits)
	}
}
