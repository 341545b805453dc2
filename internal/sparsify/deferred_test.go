package sparsify

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// deferredSetup builds a deferred sparsifier for graph g from promise
// values sigma, then refines with true weights u.
func deferredSetup(t *testing.T, g *graph.Graph, sigma, u []float64, chi float64, cfg Config) (*Deferred, *Sparsifier) {
	t.Helper()
	d, err := NewDeferred(g.N(), func(i int) (int32, int32) {
		e := g.Edge(i)
		return e.U, e.V
	}, g.M(), sigma, chi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Refine(func(i int) float64 { return u[i] })
	return d, s
}

func TestDeferredValidation(t *testing.T) {
	g := graph.GNM(10, 20, graph.WeightConfig{}, 41)
	sigma := make([]float64, g.M())
	if _, err := NewDeferred(g.N(), func(i int) (int32, int32) { e := g.Edge(i); return e.U, e.V }, g.M(), sigma, 0.5, Config{}); err == nil {
		t.Fatal("chi < 1 accepted")
	}
	if _, err := NewDeferred(g.N(), func(i int) (int32, int32) { e := g.Edge(i); return e.U, e.V }, g.M(), sigma[:5], 2, Config{}); err == nil {
		t.Fatal("short sigma accepted")
	}
}

func TestDeferredExactPromise(t *testing.T) {
	// chi = 1: promise equals truth; behaves like a plain sparsifier.
	g := graph.GNM(80, 1500, graph.WeightConfig{}, 42)
	sigma := make([]float64, g.M())
	for i := range sigma {
		sigma[i] = 1
	}
	ug := make([]float64, g.M())
	copy(ug, sigma)
	_, s := deferredSetup(t, g, sigma, ug, 1, Config{Xi: 0.25, Seed: 11})
	if err := maxCutError(g, s, 50, 12); err > 0.35 {
		t.Fatalf("cut error %.3f with exact promise", err)
	}
}

func TestDeferredDriftedWeights(t *testing.T) {
	// True weights drift from the promise by up to chi in both
	// directions; refined sparsifier must still track the *true* cuts.
	g := graph.GNM(80, 1500, graph.WeightConfig{}, 43)
	r := xrand.New(13)
	chi := 2.0
	sigma := make([]float64, g.M())
	u := make([]float64, g.M())
	for i := range sigma {
		sigma[i] = 1 + 4*r.Float64()
		// u in [sigma/chi, sigma*chi]
		f := math.Pow(chi, 2*r.Float64()-1)
		u[i] = sigma[i] * f
	}
	// Build the u-weighted truth graph.
	tg := graph.New(g.N())
	for i, e := range g.Edges() {
		tg.MustAddEdge(int(e.U), int(e.V), u[i])
	}
	_, s := deferredSetup(t, g, sigma, u, chi, Config{Xi: 0.25, Seed: 14})
	if err := maxCutError(tg, s, 50, 15); err > 0.35 {
		t.Fatalf("cut error %.3f with drifted weights", err)
	}
}

func TestDeferredOversamples(t *testing.T) {
	// Larger chi must store at least as many edges (statistically; we
	// compare sharply different chis on the same seed).
	g := graph.GNP(60, 0.5, graph.WeightConfig{}, 44)
	sigma := make([]float64, g.M())
	for i := range sigma {
		sigma[i] = 1
	}
	mk := func(chi float64) int {
		d, err := NewDeferred(g.N(), func(i int) (int32, int32) { e := g.Edge(i); return e.U, e.V }, g.M(), sigma, chi, Config{Xi: 0.5, Seed: 16})
		if err != nil {
			t.Fatal(err)
		}
		return d.Size()
	}
	small, big := mk(1), mk(4)
	if big < small {
		t.Fatalf("chi=4 stored %d < chi=1 stored %d", big, small)
	}
}

func TestDeferredRevealOnlyStored(t *testing.T) {
	g := graph.GNM(40, 400, graph.WeightConfig{}, 45)
	sigma := make([]float64, g.M())
	for i := range sigma {
		sigma[i] = 1
	}
	d, err := NewDeferred(g.N(), func(i int) (int32, int32) { e := g.Edge(i); return e.U, e.V }, g.M(), sigma, 2, Config{Xi: 0.5, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	stored := map[int]bool{}
	for _, it := range d.Items() {
		stored[it.EdgeIdx] = true
	}
	d.Refine(func(i int) float64 {
		if !stored[i] {
			t.Fatalf("Refine revealed non-stored edge %d", i)
		}
		return 1
	})
}

func TestDeferredZeroWeightDropped(t *testing.T) {
	g := graph.GNM(30, 200, graph.WeightConfig{}, 46)
	sigma := make([]float64, g.M())
	for i := range sigma {
		sigma[i] = 1
	}
	d, err := NewDeferred(g.N(), func(i int) (int32, int32) { e := g.Edge(i); return e.U, e.V }, g.M(), sigma, 2, Config{Xi: 0.5, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	s := d.Refine(func(i int) float64 { return 0 })
	if len(s.Items) != 0 {
		t.Fatalf("zero-weight edges kept: %d", len(s.Items))
	}
}

func TestDeferredSizeGrowsWithChiSquared(t *testing.T) {
	// Size should scale roughly like chi^2 on a dense graph, far from
	// linear in m. We only check monotonicity and a loose factor.
	g := graph.GNP(80, 0.8, graph.WeightConfig{}, 47)
	sigma := make([]float64, g.M())
	for i := range sigma {
		sigma[i] = 1
	}
	sizes := map[float64]int{}
	for _, chi := range []float64{1, 2, 4} {
		d, err := NewDeferred(g.N(), func(i int) (int32, int32) { e := g.Edge(i); return e.U, e.V }, g.M(), sigma, chi, Config{Xi: 0.5, Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		sizes[chi] = d.Size()
	}
	if sizes[4] < sizes[2] || sizes[2] < sizes[1] {
		t.Fatalf("sizes not monotone in chi: %v", sizes)
	}
}
