package sparsify

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestBuilderRejectsBadArgs(t *testing.T) {
	if err := new(DeferredBuilder).Reset(10, 5, 0.5, Config{}); err == nil {
		t.Fatal("chi < 1 accepted")
	}
	if err := new(DeferredBuilder).Reset(10, -1, 2, Config{}); err == nil {
		t.Fatal("negative m accepted")
	}
}

func TestBuilderStaleRevealUsesPromise(t *testing.T) {
	// The stored Item's provisional Weight is the sampling-time promise:
	// a stale reveal (ablation mode) returns it unchanged and the refined
	// weight is promise/prob.
	g := graph.GNM(12, 40, graph.WeightConfig{}, 11)
	b := freshBuilder(t, g.N(), g.M(), 2, Config{Xi: 0.5, K: 4, Seed: 3})
	for i, e := range g.Edges() {
		b.Add(i, e.U, e.V, e.W, i, 1.5)
	}
	d := b.Finish()
	sp := d.RefineWith(1, func(it Item) float64 { return it.Weight })
	for _, it := range sp.Items {
		if got := it.Weight * it.Prob; got < 1.5-1e-12 || got > 1.5+1e-12 {
			t.Fatalf("stale refine weight %v * prob %v != promise 1.5", it.Weight, it.Prob)
		}
	}
}

// TestBuilderResetMatchesFresh pins builder reuse: one builder Reset
// across constructions of different sizes, class mixes, configs and
// vertex counts (growing and shrinking), and after a feed abandoned
// halfway, must emit exactly what a fresh builder emits for each.
func TestBuilderResetMatchesFresh(t *testing.T) {
	reused := new(DeferredBuilder)
	for trial, tc := range []struct {
		n, m    int
		spread  float64
		chi     float64
		abandon bool // feed half the sequence, then Reset and feed it all
	}{
		{40, 400, 16, 2, false}, {40, 60, 1, 1, false}, {40, 300, 64, 3, false}, {40, 0, 2, 1, false},
		{40, 250, 8, 1.5, false},
		// n grows and shrinks; χ = 1 and a narrow spread make the
		// constructions sample, so leftover forest state would show.
		{64, 1200, 2, 1, false}, {24, 250, 2, 1, false}, {40, 700, 2, 1, false},
		{40, 700, 2, 1, true}, {24, 250, 2, 1, true},
	} {
		g := graph.GNM(tc.n, max(tc.m, 1), graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, uint64(trial)+1)
		r := xrand.New(uint64(trial) + 200)
		sigma := make([]float64, tc.m)
		for i := range sigma {
			sigma[i] = r.Float64() * tc.spread
		}
		cfg := Config{Xi: 0.5, K: 4, Seed: uint64(trial) + 9}
		feed := func(b *DeferredBuilder, m int) {
			for i := 0; i < m; i++ {
				e := g.Edge(i)
				b.Add(i, e.U, e.V, e.W, 1000+i, sigma[i])
			}
		}
		fresh := freshBuilder(t, g.N(), tc.m, tc.chi, cfg)
		feed(fresh, tc.m)
		want := fresh.Finish().Items()
		if err := reused.Reset(g.N(), tc.m, tc.chi, cfg); err != nil {
			t.Fatal(err)
		}
		if tc.abandon {
			feed(reused, tc.m/2)
			if err := reused.Reset(g.N(), tc.m, tc.chi, cfg); err != nil {
				t.Fatal(err)
			}
		}
		feed(reused, tc.m)
		if got := reused.Finish().Items(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: reset builder emitted %d items, fresh builder %d (or contents differ)", trial, len(got), len(want))
		}
	}
	if cap(reused.slots) == 0 || len(reused.forests) == 0 {
		t.Fatal("reused builder retained no slot capacity or forests")
	}
}

// TestBuilderReuseAllocatesLittle pins what a builder's ownership of its
// constructions buys: a second identical cycle (Reset, Add every edge,
// Finish, RefineWith) on one builder draws its forests, construction
// shells, slots and item and reveal buffers from the first cycle's, so
// it allocates under 5% of the bytes the first cycle allocated.
func TestBuilderReuseAllocatesLittle(t *testing.T) {
	g := graph.GNM(200, 4000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, 3)
	r := xrand.New(4)
	sigma := make([]float64, g.M())
	for i := range sigma {
		sigma[i] = 0.5 + 8*r.Float64()
	}
	b := new(DeferredBuilder)
	cycle := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := b.Reset(g.N(), g.M(), 2, Config{Xi: 0.5, K: 4, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		for i, e := range g.Edges() {
			b.Add(i, e.U, e.V, e.W, i, sigma[i])
		}
		b.Finish().RefineWith(1, func(it Item) float64 { return it.Weight })
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := cycle()
	second := cycle()
	t.Logf("bytes allocated: first cycle %d, second %d (%.1f%%)", first, second, 100*float64(second)/float64(first))
	if float64(second) >= 0.05*float64(first) {
		t.Fatalf("second cycle allocated %d B, first %d B: want under 5%%", second, first)
	}
}

// freshBuilder arms a new builder the way the solver does: a zero
// DeferredBuilder plus Reset.
func freshBuilder(t *testing.T, n, m int, chi float64, cfg Config) *DeferredBuilder {
	t.Helper()
	b := new(DeferredBuilder)
	if err := b.Reset(n, m, chi, cfg); err != nil {
		t.Fatal(err)
	}
	return b
}
