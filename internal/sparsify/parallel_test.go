package sparsify

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// weightedInstance spans many powers-of-two weight classes so the
// per-class fan-out actually has work to distribute.
func weightedInstance(n int, seed uint64) *graph.Graph {
	return graph.GNP(n, 0.4, graph.WeightConfig{Mode: graph.ExpWeights, Scale: 2}, seed)
}

// TestWeightedWorkersBitIdentical is the sparsify layer's half of the
// pipeline determinism contract: same seed, any worker count, identical
// items in identical order.
func TestWeightedWorkersBitIdentical(t *testing.T) {
	g := weightedInstance(120, 3)
	base := Weighted(g, Config{Xi: 0.25, Seed: 9, Workers: 1})
	if len(base.Items) == 0 {
		t.Fatal("empty sparsifier")
	}
	for _, workers := range []int{2, 4, 0} {
		sp := Weighted(g, Config{Xi: 0.25, Seed: 9, Workers: workers})
		if !reflect.DeepEqual(base.Items, sp.Items) {
			t.Fatalf("workers=%d: items differ from sequential", workers)
		}
	}
}

func TestDeferredWorkersBitIdentical(t *testing.T) {
	g := weightedInstance(100, 5)
	r := xrand.New(17)
	sigma := make([]float64, g.M())
	u := make([]float64, g.M())
	for i := range sigma {
		sigma[i] = 0.5 + 4*r.Float64()
		u[i] = sigma[i] * (0.7 + 0.6*r.Float64())
	}
	build := func(workers int) *Deferred {
		d, err := NewDeferred(g.N(), func(i int) (int32, int32) {
			e := g.Edge(i)
			return e.U, e.V
		}, g.M(), sigma, 2, Config{Xi: 0.25, K: 8, Seed: 23, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	seq := build(1)
	if seq.Size() == 0 {
		t.Fatal("empty deferred structure")
	}
	for _, workers := range []int{2, 4, 0} {
		par := build(workers)
		if !reflect.DeepEqual(seq.items, par.items) {
			t.Fatalf("workers=%d: stored items differ", workers)
		}
		a := seq.Refine(func(i int) float64 { return u[i] })
		b := par.RefineWith(workers, func(it Item) float64 { return u[it.EdgeIdx] })
		if !reflect.DeepEqual(a.Items, b.Items) {
			t.Fatalf("workers=%d: refined sparsifiers differ", workers)
		}
	}
}

func TestBucketByClassMatchesSequentialScan(t *testing.T) {
	weights := []float64{1, 2, 3, 0, 4.5, 0.9, 2.2, -1, 1024, 1025, 0.003}
	weightOf := func(i int) float64 { return weights[i] }
	seq := bucketByClass(len(weights), weightOf, 1)
	for _, workers := range []int{2, 3, 8} {
		par := bucketByClass(len(weights), weightOf, workers)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: %v vs %v", workers, par, seq)
		}
	}
	// Classes sorted, indices increasing, non-positive weights dropped.
	prevClass := -1 << 30
	total := 0
	for _, grp := range seq {
		if grp.class <= prevClass {
			t.Fatalf("classes not sorted: %v", seq)
		}
		prevClass = grp.class
		for i := 1; i < len(grp.idxs); i++ {
			if grp.idxs[i] <= grp.idxs[i-1] {
				t.Fatalf("class %d indices not increasing: %v", grp.class, grp.idxs)
			}
		}
		total += len(grp.idxs)
	}
	if total != len(weights)-2 { // two non-positive weights dropped
		t.Fatalf("bucketed %d edges, want %d", total, len(weights)-2)
	}
}

func TestWeightedDeterministicAcrossRuns(t *testing.T) {
	// Regression: class iteration used to follow Go map order, which made
	// item order vary run to run. It must now be a pure function of the
	// seed.
	g := weightedInstance(80, 11)
	a := Weighted(g, Config{Xi: 0.25, Seed: 31})
	b := Weighted(g, Config{Xi: 0.25, Seed: 31})
	if !reflect.DeepEqual(a.Items, b.Items) {
		t.Fatal("same-seed runs produced different item orders")
	}
}
