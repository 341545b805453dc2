package graph

import (
	"math"
	"testing"
)

func TestGNMBasic(t *testing.T) {
	g := GNM(50, 200, WeightConfig{Mode: UnitWeights}, 1)
	if g.N() != 50 || g.M() != 200 {
		t.Fatalf("GNM dims: n=%d m=%d", g.N(), g.M())
	}
	seen := map[uint64]bool{}
	for _, e := range g.Edges() {
		if e.U == e.V {
			t.Fatal("self loop in GNM")
		}
		if seen[e.Key()] {
			t.Fatal("duplicate edge in GNM")
		}
		seen[e.Key()] = true
		if e.W != 1 {
			t.Fatalf("unit weight violated: %f", e.W)
		}
	}
}

func TestGNMCapsAtComplete(t *testing.T) {
	g := GNM(5, 100, WeightConfig{}, 2)
	if g.M() != 10 {
		t.Fatalf("GNM should cap at C(5,2)=10, got %d", g.M())
	}
}

func TestGNMDeterministic(t *testing.T) {
	a := GNM(30, 100, WeightConfig{Mode: UniformWeights, WMax: 9}, 7)
	b := GNM(30, 100, WeightConfig{Mode: UniformWeights, WMax: 9}, 7)
	if a.M() != b.M() {
		t.Fatal("same seed, different edge count")
	}
	for i := range a.Edges() {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("same seed, edge %d differs", i)
		}
	}
}

func TestGNPDensity(t *testing.T) {
	n, p := 200, 0.1
	g := GNP(n, p, WeightConfig{}, 3)
	want := p * float64(n*(n-1)/2)
	got := float64(g.M())
	if math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Fatalf("GNP edge count %f deviates from %f", got, want)
	}
	seen := map[uint64]bool{}
	for _, e := range g.Edges() {
		if seen[e.Key()] {
			t.Fatal("duplicate edge in GNP")
		}
		seen[e.Key()] = true
	}
}

func TestGNPExtremes(t *testing.T) {
	if g := GNP(10, 0, WeightConfig{}, 1); g.M() != 0 {
		t.Fatal("GNP(p=0) has edges")
	}
	if g := GNP(10, 1, WeightConfig{}, 1); g.M() != 45 {
		t.Fatalf("GNP(p=1) m=%d, want 45", g.M())
	}
}

func TestBipartiteSides(t *testing.T) {
	g := Bipartite(10, 15, 60, WeightConfig{Mode: PowersOf, Eps: 0.5, Levels: 5}, 4)
	if g.N() != 25 || g.M() != 60 {
		t.Fatalf("dims: n=%d m=%d", g.N(), g.M())
	}
	for _, e := range g.Edges() {
		l, r := e.U, e.V
		if l > r {
			l, r = r, l
		}
		if l >= 10 || r < 10 {
			t.Fatalf("edge (%d,%d) not across the bipartition", e.U, e.V)
		}
	}
}

func TestPowersOfWeightsAreDiscrete(t *testing.T) {
	g := GNM(40, 150, WeightConfig{Mode: PowersOf, Eps: 0.25, Levels: 8}, 5)
	for _, e := range g.Edges() {
		k := math.Log(e.W) / math.Log(1.25)
		if math.Abs(k-math.Round(k)) > 1e-9 {
			t.Fatalf("weight %f is not a power of 1.25", e.W)
		}
		if k < -1e-9 || k > 7+1e-9 {
			t.Fatalf("level %f out of range", k)
		}
	}
}

func TestPowerLawDegrees(t *testing.T) {
	g := PowerLaw(300, 6, 2.5, WeightConfig{}, 6)
	if g.M() == 0 {
		t.Fatal("power-law graph empty")
	}
	maxDeg, sumDeg := 0, 0
	for v := 0; v < g.N(); v++ {
		d := degree(g, v)
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sumDeg) / float64(g.N())
	if maxDeg < int(3*avg) {
		t.Fatalf("power law lacks hubs: max=%d avg=%f", maxDeg, avg)
	}
}

func TestPlantedMatching(t *testing.T) {
	g, planted := PlantedMatching(100, 400, 50, 5, 8)
	if planted != 50*50 {
		t.Fatalf("planted weight %f, want 2500", planted)
	}
	if g.M() != 50+400 {
		t.Fatalf("m = %d, want 450", g.M())
	}
	// The planted matching is realizable: the 50 heavy edges are disjoint.
	used := map[int32]bool{}
	heavy := 0
	for _, e := range g.Edges() {
		if e.W == 50 {
			heavy++
			if used[e.U] || used[e.V] {
				t.Fatal("planted edges overlap")
			}
			used[e.U], used[e.V] = true, true
		}
	}
	if heavy != 50 {
		t.Fatalf("found %d planted edges, want 50", heavy)
	}
}

func TestTriangleGap(t *testing.T) {
	g := TriangleGap(0.1)
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("gadget dims n=%d m=%d", g.N(), g.M())
	}
	if g.MaxWeight() != 1 {
		t.Fatalf("max weight %f, want 1", g.MaxWeight())
	}
	if w := g.Edge(0).W + g.Edge(1).W + g.Edge(2).W; math.Abs(w-(2+10*0.1)) > 1e-12 {
		t.Fatalf("total weight %f", w)
	}
}

func TestTriangleChain(t *testing.T) {
	g := TriangleChain(4)
	if g.N() != 12 || g.M() != 12 {
		t.Fatalf("chain dims n=%d m=%d", g.N(), g.M())
	}
	_, comps := g.ConnectedComponents()
	if comps != 4 {
		t.Fatalf("chain components = %d, want 4", comps)
	}
}

func TestWithRandomB(t *testing.T) {
	g := GNM(30, 60, WeightConfig{}, 9)
	WithRandomB(g, 5, false, 10)
	for v := 0; v < g.N(); v++ {
		if g.B(v) < 1 || g.B(v) > 5 {
			t.Fatalf("b(%d) = %d out of [1,5]", v, g.B(v))
		}
	}
	g2 := GNM(30, 60, WeightConfig{}, 9)
	WithRandomB(g2, 5, true, 10)
	ones := 0
	for v := 0; v < g2.N(); v++ {
		if g2.B(v) == 1 {
			ones++
		}
	}
	if ones < g2.N()/2 {
		t.Fatalf("zipf capacities should favor 1: only %d ones", ones)
	}
}
