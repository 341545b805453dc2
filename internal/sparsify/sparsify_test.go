package sparsify

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// maxCutError measures the worst relative cut error over singleton cuts
// and `trials` random cuts.
func maxCutError(g *graph.Graph, s *Sparsifier, trials int, seed uint64) float64 {
	r := xrand.New(seed)
	worst := 0.0
	check := func(mask []bool) {
		truth := g.CutWeight(mask)
		if truth <= 0 {
			return
		}
		est := s.CutWeight(mask)
		rel := math.Abs(est-truth) / truth
		if rel > worst {
			worst = rel
		}
	}
	for v := 0; v < g.N(); v++ {
		mask := make([]bool, g.N())
		mask[v] = true
		check(mask)
	}
	for t := 0; t < trials; t++ {
		mask := make([]bool, g.N())
		for i := range mask {
			mask[i] = r.Bernoulli(0.5)
		}
		check(mask)
	}
	return worst
}

func TestUnweightedPreservesCuts(t *testing.T) {
	g := graph.GNM(120, 3000, graph.WeightConfig{Mode: graph.UnitWeights}, 31)
	s := graphSparsifier(g, Config{Xi: 0.25, Seed: 1})
	if err := maxCutError(g, s, 60, 2); err > 0.35 {
		t.Fatalf("max cut error %.3f exceeds tolerance", err)
	}
}

func TestUnweightedShrinksDenseGraph(t *testing.T) {
	g := graph.GNP(150, 0.6, graph.WeightConfig{}, 32)
	s := graphSparsifier(g, Config{Xi: 0.5, Seed: 3})
	if len(s.Items) >= g.M() {
		t.Fatalf("sparsifier (%d) not smaller than graph (%d)", len(s.Items), g.M())
	}
}

func TestSparsifierKeepsSparseGraphExactly(t *testing.T) {
	// A tree has connectivity 1 everywhere: every edge is critical at
	// level 0 and must be kept with probability 1 and weight unchanged.
	const n = 50
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(i, i/2, 1)
	}
	s := graphSparsifier(g, Config{Xi: 0.25, Seed: 4})
	if len(s.Items) != g.M() {
		t.Fatalf("tree sparsifier has %d items, want %d", len(s.Items), g.M())
	}
	for _, it := range s.Items {
		if it.Prob != 1 || it.Weight != 1 {
			t.Fatalf("tree edge resampled: prob=%f weight=%f", it.Prob, it.Weight)
		}
	}
}

func TestWeightedPreservesCuts(t *testing.T) {
	g := graph.GNM(100, 2500, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 1000}, 33)
	s := graphSparsifier(g, Config{Xi: 0.25, Seed: 5})
	if err := maxCutError(g, s, 60, 6); err > 0.35 {
		t.Fatalf("max weighted cut error %.3f", err)
	}
}

func TestWeightedHandlesWideDynamicRange(t *testing.T) {
	g := graph.New(40)
	r := xrand.New(7)
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			if r.Bernoulli(0.5) {
				g.MustAddEdge(i, j, math.Pow(2, float64(r.Intn(20))))
			}
		}
	}
	s := graphSparsifier(g, Config{Xi: 0.25, Seed: 8})
	if err := maxCutError(g, s, 40, 9); err > 0.35 {
		t.Fatalf("wide-range cut error %.3f", err)
	}
}

func TestSparsifierGraphRoundTrip(t *testing.T) {
	g := graph.GNM(30, 200, graph.WeightConfig{}, 34)
	s := graphSparsifier(g, Config{Xi: 0.5, Seed: 10})
	sg := graph.New(s.N)
	for _, it := range s.Items {
		sg.MustAddEdge(int(it.U), int(it.V), it.Weight)
	}
	if sg.N() != g.N() {
		t.Fatalf("graph N = %d", sg.N())
	}
	mask := make([]bool, g.N())
	for i := 0; i < 10; i++ {
		mask[i] = true
	}
	if a, b := s.CutWeight(mask), sg.CutWeight(mask); math.Abs(a-b) > 1e-9 {
		t.Fatalf("CutWeight mismatch %f vs %f", a, b)
	}
}

func TestUnbiasedSingletonCuts(t *testing.T) {
	// Average over many seeds: the estimator of a fixed cut should be
	// unbiased, so the mean relative error should be far below the
	// per-sample deviation.
	g := graph.GNM(60, 900, graph.WeightConfig{}, 35)
	mask := make([]bool, g.N())
	for i := 0; i < 30; i++ {
		mask[i] = true
	}
	truth := g.CutWeight(mask)
	sum := 0.0
	const reps = 40
	for rseed := uint64(0); rseed < reps; rseed++ {
		s := graphSparsifier(g, Config{Xi: 0.5, Seed: 100 + rseed})
		sum += s.CutWeight(mask)
	}
	mean := sum / reps
	if math.Abs(mean-truth)/truth > 0.1 {
		t.Fatalf("estimator biased: mean %.2f vs truth %.2f", mean, truth)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults(100)
	if c.Xi != 0.25 || c.K < 4 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	c2 := Config{K: 7, Xi: 0.1}.withDefaults(100)
	if c2.K != 7 || c2.Xi != 0.1 {
		t.Fatalf("explicit config overridden: %+v", c2)
	}
}

// TestWeightedDeterministicAcrossRuns: class iteration used to follow
// Go map order, which made item order vary run to run. It must be a pure
// function of the seed.
func TestWeightedDeterministicAcrossRuns(t *testing.T) {
	g := graph.GNP(80, 0.4, graph.WeightConfig{Mode: graph.ExpWeights, Scale: 2}, 11)
	a := graphSparsifier(g, Config{Xi: 0.25, Seed: 31})
	b := graphSparsifier(g, Config{Xi: 0.25, Seed: 31})
	if !reflect.DeepEqual(a.Items, b.Items) {
		t.Fatal("same-seed runs produced different item orders")
	}
}

// graphSparsifier builds g's cut sparsifier as a deferred one with exact
// promises: χ = 1, each edge's promise its weight, refined by the
// weights. The weight classes are its promise classes.
func graphSparsifier(g *graph.Graph, cfg Config) *Sparsifier {
	var b DeferredBuilder
	if err := b.Reset(g.N(), g.M(), 1, cfg); err != nil {
		panic(err) // χ = 1 and m ≥ 0 are always accepted
	}
	for i, e := range g.Edges() {
		b.Add(i, e.U, e.V, e.W, i, e.W)
	}
	return b.Finish().RefineWith(1, func(it Item) float64 { return it.W })
}
