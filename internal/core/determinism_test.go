package core

import (
	"testing"
)

// Pinning tests for the sorted-iteration discipline (lines the maprange
// analyzer polices). Both tests use adversarial magnitudes (±1e16 next
// to O(1) terms) so that summing in a different order changes the float
// result by several ulps of the large intermediate — enough to flip a
// comparison. Go randomizes map iteration per range statement, so the
// pre-fix code gave different answers call to call; these tests fail on
// it with overwhelming probability.

func TestCheckLP7Deterministic(t *testing.T) {
	// One support edge (0,1) at level 0, ŵ_0 = 1. The witness carries μ
	// rows {1e16, 1, -1e16}: in exact arithmetic the objective is
	// y_0 - 3·(1e16 + 1 - 1e16) = 10 - 3 = 7, but float evaluation
	// lands a few ulps-of-3e16 away (≈4 or 8 depending on order). With
	// (1-ε)β = 6 the verdict sits inside that band: some iteration
	// orders failed the objective check, others passed it and tripped
	// the vertex-capacity check instead.
	in := microInput{
		edges:   []supportEdge{{u: 0, v: 1, k: 0, w: 1}},
		rho:     1,
		beta:    8,
		eps:     0.25,
		bOf:     func(int) int { return 1 },
		wHat:    unitWHat,
		nLevels: 1,
		maxNorm: 3,
	}
	w := &lp7Witness{
		y: []float64{10},
		mu: map[rowKey]float64{
			{0, 0}: 1e16,
			{1, 0}: 1,
			{2, 0}: -1e16,
		},
		beta: 8,
	}
	first := checkLP7(in, w, 0)
	if first != "objective below (1-eps)beta" {
		t.Fatalf("sorted-order verdict changed: %q", first)
	}
	for i := 0; i < 300; i++ {
		if got := checkLP7(in, w, 0); got != first {
			t.Fatalf("call %d: verdict %q, previous calls said %q", i, got, first)
		}
	}
}

func TestObjectiveDeterministic(t *testing.T) {
	// maxPerVertex holds {1, 1, 1e16}. Sorted by vertex the sum is
	// (1+1)+1e16 = 1e16+2 exactly; starting from 1e16 instead, each +1
	// is a round-to-even tie that vanishes, giving 1e16. The pre-fix
	// map-order sum returned either value depending on the run.
	a := &oracleAnswer{
		xEntries: []xEntry{
			{v: 0, val: 1},
			{v: 1, val: 1},
			{v: 2, val: 1e16},
		},
	}
	bOf := func(int) int { return 1 }
	const want = 1e16 + 2
	for i := 0; i < 300; i++ {
		if got := a.objective(bOf); got != want {
			t.Fatalf("call %d: objective %v, want exactly %v", i, got, want)
		}
	}
}
