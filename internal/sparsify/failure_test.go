package sparsify

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Failure-injection tests: what happens when the deferred sparsifier's
// contract is violated. These document the boundary of Definition 4's
// promise rather than asserting graceful magic.

func TestDeferredPromiseViolationDegrades(t *testing.T) {
	// True weights drift far beyond the declared chi: the refined
	// estimate may be (much) worse than with an honest chi. We check the
	// honest configuration is at least as good — i.e. the chi parameter
	// is doing real work.
	g := graph.GNP(70, 0.6, graph.WeightConfig{}, 301)
	r := xrand.New(302)
	sigma := make([]float64, g.M())
	u := make([]float64, g.M())
	actualDrift := 8.0
	for i := range sigma {
		sigma[i] = 1 + 3*r.Float64()
		u[i] = sigma[i] * math.Pow(actualDrift, 2*r.Float64()-1)
	}
	tg := graph.New(g.N())
	for i, e := range g.Edges() {
		tg.MustAddEdge(int(e.U), int(e.V), u[i])
	}
	errFor := func(declaredChi float64, seed uint64) float64 {
		d, err := NewDeferred(g.N(), func(i int) (int32, int32) {
			e := g.Edge(i)
			return e.U, e.V
		}, g.M(), sigma, declaredChi, Config{Xi: 0.25, K: 12, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sp := d.Refine(func(i int) float64 { return u[i] })
		worst := 0.0
		rr := xrand.New(seed + 7)
		for trial := 0; trial < 30; trial++ {
			mask := make([]bool, g.N())
			for i := range mask {
				mask[i] = rr.Bernoulli(0.5)
			}
			truth := tg.CutWeight(mask)
			if truth <= 0 {
				continue
			}
			if rel := math.Abs(sp.CutWeight(mask)-truth) / truth; rel > worst {
				worst = rel
			}
		}
		return worst
	}
	// Average over seeds to avoid single-draw noise.
	liar, honest := 0.0, 0.0
	const reps = 5
	for s := uint64(0); s < reps; s++ {
		liar += errFor(1, 400+s)
		honest += errFor(actualDrift, 400+s)
	}
	if honest > liar+0.05 {
		t.Fatalf("honest chi (avg err %.3f) should not be worse than understated chi (avg err %.3f)",
			honest/reps, liar/reps)
	}
}

func TestDeferredAllZeroPromise(t *testing.T) {
	// Zero promises mean no edge carries weight: nothing is stored.
	g := graph.GNM(20, 60, graph.WeightConfig{}, 303)
	sigma := make([]float64, g.M())
	d, err := NewDeferred(g.N(), func(i int) (int32, int32) {
		e := g.Edge(i)
		return e.U, e.V
	}, g.M(), sigma, 2, Config{Xi: 0.25, Seed: 304})
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 0 {
		t.Fatalf("stored %d edges from zero promises", d.Size())
	}
	sp := d.Refine(func(int) float64 { return 1 })
	if len(sp.Items) != 0 {
		t.Fatal("refined items from empty structure")
	}
}

func TestDeferredExtremePromiseRange(t *testing.T) {
	// Promises spanning 30 orders of magnitude must not panic or lose
	// the heavy edges.
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(4, 5, 1)
	sigma := []float64{1e-15, 1, 1e15}
	d, err := NewDeferred(g.N(), func(i int) (int32, int32) {
		e := g.Edge(i)
		return e.U, e.V
	}, g.M(), sigma, 1, Config{Xi: 0.25, Seed: 305})
	if err != nil {
		t.Fatal(err)
	}
	// Every edge is a bridge (connectivity 1): all must be stored.
	if d.Size() != 3 {
		t.Fatalf("stored %d, want 3 (all bridges)", d.Size())
	}
}

func TestUnweightedSingleEdgeAndEmpty(t *testing.T) {
	g := graph.New(3)
	s := graphSparsifier(g, Config{Xi: 0.25, Seed: 306})
	if len(s.Items) != 0 {
		t.Fatal("items from empty graph")
	}
	g.MustAddEdge(0, 1, 5)
	s = graphSparsifier(g, Config{Xi: 0.25, Seed: 307})
	if len(s.Items) != 1 || s.Items[0].Weight != 5 || s.Items[0].Prob != 1 {
		t.Fatalf("single edge mishandled: %+v", s.Items)
	}
}

func TestWeightedZeroAndNegativeClassesDropped(t *testing.T) {
	// A promise no weight class holds carries no cut mass: Add stores
	// nothing for it rather than panic, and a bridge with promise 1 is
	// stored.
	for _, sigma := range []float64{0, -1, math.NaN(), math.Inf(1), 1} {
		b := freshBuilder(t, 2, 1, 1, Config{Seed: 1})
		b.Add(0, 0, 1, 1, 0, sigma)
		want := 0
		if sigma == 1 {
			want = 1
		}
		if got := b.Finish().Size(); got != want {
			t.Fatalf("promise %v: %d items stored, want %d", sigma, got, want)
		}
	}
}

// TestWeightClassEqualsLog2 checks weightClass against the expression it
// replaces, int(math.Floor(math.Log2(x))): on random positive floats over
// the whole exponent range, subnormals included, and on every power of
// two with its 64 neighbours on each side; and that it places no edge of
// non-positive, NaN or infinite weight.
func TestWeightClassEqualsLog2(t *testing.T) {
	check := func(x float64) {
		got, ok := weightClass(x)
		if want := int(math.Floor(math.Log2(x))); !ok || got != want {
			t.Fatalf("weightClass(%v) [bits %#016x] = (%d, %v), math.Log2 floor %d",
				x, math.Float64bits(x), got, ok, want)
		}
	}
	r := xrand.New(23)
	for i := 0; i < 200000; i++ {
		bits := r.Uint64() >> 1 // positive, every exponent equally likely
		if x := math.Float64frombits(bits); x > 0 && x <= math.MaxFloat64 {
			check(x)
		}
	}
	for e := -1074; e <= 1023; e++ {
		p := math.Float64bits(math.Ldexp(1, e))
		for d := -64; d <= 64; d++ {
			if x := math.Float64frombits(p + uint64(d)); x > 0 && x <= math.MaxFloat64 {
				check(x)
			}
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), -1, -math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if cl, ok := weightClass(x); ok {
			t.Fatalf("weightClass(%v) = (%d, true), want no class", x, cl)
		}
	}
}
