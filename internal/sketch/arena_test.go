package sketch

import (
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// applyL0Updates feeds a deterministic update sequence into a sampler.
func applyL0Updates(s *L0, seed uint64) {
	for i := 0; i < 200; i++ {
		s.Update(uint64(i)*0x9e3779b97f4a7c15+seed+1, int64(1-2*(i%2)))
	}
}

// TestArenaL0RoundTrip checks the Get/Put/Reset cycle against cold
// construction: a pooled sampler must be bit-identical to a fresh NewL0
// after the same update sequence, on the first Get (cold path) and again
// after a Put/Get round trip (recycled path).
func TestArenaL0RoundTrip(t *testing.T) {
	spec := NewL0Spec(xrand.New(13), 24, 12, 8)
	a := NewArena()

	for round := uint64(0); round < 3; round++ {
		got := a.GetL0(spec)
		want := spec.NewL0()
		applyL0Updates(got, round)
		applyL0Updates(want, round)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: arena sampler differs from fresh sampler", round)
		}
		a.PutL0(spec, got)
	}
}

// TestArenaCrossSpecPutPanics pins the ownership rule: returning a
// sketch to a pool keyed by a different spec must panic rather than let
// a later Get decode under the wrong hash functions.
func TestArenaCrossSpecPutPanics(t *testing.T) {
	t.Run("l0", func(t *testing.T) {
		specA := NewL0Spec(xrand.New(23), 24, 12, 8)
		specB := NewL0Spec(xrand.New(24), 24, 12, 8)
		a := NewArena()
		s := a.GetL0(specA)
		defer func() {
			if recover() == nil {
				t.Fatal("cross-spec PutL0 did not panic")
			}
		}()
		a.PutL0(specB, s)
	})
}

// TestArenaBankBuildBitIdentity drives the per-shard sub-arena path
// under every worker count (the -race job runs this package): repeated
// arena-fed builds recycling through ReleaseTo must stay bit-identical
// to a cold BuildBankArena (nil arena) of the same spec and edges.
func TestArenaBankBuildBitIdentity(t *testing.T) {
	const n = 96
	edges := ringEdges(n)
	spec := NewIncidenceSpec(xrand.New(31), n, 6, 12, 8)
	cold := spec.BuildBankArena(edges, 1, nil)

	a := NewArena()
	for _, workers := range []int{1, 2, 4} {
		for trial := 0; trial < 2; trial++ {
			got := spec.BuildBankArena(edges, workers, a)
			if !reflect.DeepEqual(cold, got) {
				t.Fatalf("workers=%d trial=%d: arena build differs from cold build", workers, trial)
			}
			got.ReleaseTo(a)
		}
	}
}

// TestBankBuildArenaAllocsFlat asserts the allocation profile the arena
// exists for: once one build has populated the pool, a build+release
// cycle allocates only per-build bookkeeping (spines, bucket staging) —
// two orders of magnitude below the n·reps sketch allocations of a cold
// build.
func TestBankBuildArenaAllocsFlat(t *testing.T) {
	const n = 128
	edges := ringEdges(n)
	spec := NewIncidenceSpec(xrand.New(37), n, 6, 12, 8)

	a := NewArena()
	spec.BuildBankArena(edges, 1, a).ReleaseTo(a) // populate the pool

	cold := testing.AllocsPerRun(5, func() {
		spec.BuildBankArena(edges, 1, nil)
	})
	warm := testing.AllocsPerRun(5, func() {
		spec.BuildBankArena(edges, 1, a).ReleaseTo(a)
	})
	// A cold build allocates at least one object per (vertex, repetition)
	// column; a warm build must be wholly independent of n·reps.
	if min := float64(n * spec.reps); cold < min {
		t.Fatalf("cold build allocs = %.0f, want >= %.0f (n·reps columns)", cold, min)
	}
	if warm > 64 {
		t.Fatalf("arena build allocs = %.0f, want <= 64 (column reuse must not allocate per vertex)", warm)
	}
}

// BenchmarkBankBuildArena measures steady-state arena builds against
// cold builds (the allocs/op columns are the point of the comparison).
func BenchmarkBankBuildArena(b *testing.B) {
	const n = 512
	edges := ringEdges(n)
	spec := NewIncidenceSpec(xrand.New(41), n, 10, 12, 8)

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spec.BuildBankArena(edges, 1, nil)
		}
	})
	b.Run("arena", func(b *testing.B) {
		a := NewArena()
		spec.BuildBankArena(edges, 1, a).ReleaseTo(a)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spec.BuildBankArena(edges, 1, a).ReleaseTo(a)
		}
	})
}
