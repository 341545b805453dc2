package sketch

import (
	"testing"

	"repro/internal/xrand"
)

func BenchmarkL0Update(b *testing.B) {
	spec := NewL0Spec(xrand.New(1), 24, 12, 8)
	sk := spec.NewL0()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(uint64(i)*2654435761+1, 1)
	}
}

func BenchmarkL0Sample(b *testing.B) {
	spec := NewL0Spec(xrand.New(2), 24, 12, 8)
	sk := spec.NewL0()
	for i := 0; i < 10000; i++ {
		sk.Update(uint64(i)*2654435761+1, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Sample()
	}
}

func BenchmarkSSparseRecover(b *testing.B) {
	spec := NewSSparseSpec(xrand.New(3), 12, 8)
	sk := spec.NewSSparse()
	for i := 0; i < 10; i++ {
		sk.Update(uint64(i)*7+1, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Recover()
	}
}

// BenchmarkOneSparseUpdate measures the per-cell update kernel: the
// legacy scalar path pays a full square-and-multiply powm per cell,
// the hoisted path one window-table Pow plus the two-mulm updateRaw —
// even before the Pow amortizes across a sketch's cells (rows × levels
// share it in real updates). The acceptance bar is ≥ 4x per-cell
// throughput, and both paths must be allocation-free.
func BenchmarkOneSparseUpdate(b *testing.B) {
	z := NewFingerprintBase(xrand.New(7))
	zp := newFpPow(z)
	b.Run("legacy-scalar", func(b *testing.B) {
		cell := NewOneSparse(z)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cell.Update(uint64(i)*2654435761+1, 1)
		}
	})
	b.Run("hoisted-kernel", func(b *testing.B) {
		cell := NewOneSparse(z)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			key := uint64(i)*2654435761 + 1
			cell.updateRaw(key%prime, 1, zp.Pow(key))
		}
	})
}

func BenchmarkSpanningForest(b *testing.B) {
	// Build once per iteration: bank construction dominates and is the
	// realistic cost of the MR pipeline.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := NewIncidenceSpec(xrand.New(uint64(i)), 128, 10, 12, 8)
		bank := newBank(spec)
		for v := 0; v < 127; v++ {
			bank.AddEdge(int32(v), int32(v+1))
		}
		if _, _, err := bank.SpanningForest(); err != nil {
			b.Fatal(err)
		}
	}
}
