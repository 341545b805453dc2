package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if err := g.AddEdge(0, 1, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := g.AddEdge(0, 1, -2); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := g.AddEdge(0, 1, 3.5); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(a, b uint16) bool {
		u, v := int32(a), int32(b)
		k := KeyOf(u, v)
		x, y := UnKey(k)
		if u > v {
			u, v = v, u
		}
		return x == u && y == v && KeyOf(v, u) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// degree counts v's incident edges (with multiplicity).
func degree(g *Graph, v int) int {
	d := 0
	g.Neighbors(v, func(int, int32) { d++ })
	return d
}

func TestNeighborsAndDegree(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 2)
	g.MustAddEdge(0, 3, 3)
	g.MustAddEdge(1, 2, 4)
	if d := degree(g, 0); d != 3 {
		t.Fatalf("deg(0) = %d, want 3", d)
	}
	if d := degree(g, 3); d != 1 {
		t.Fatalf("deg(3) = %d, want 1", d)
	}
	sum := 0.0
	g.Neighbors(0, func(idx int, other int32) {
		sum += g.Edge(idx).W
		if other == 0 {
			t.Fatal("neighbor equals self")
		}
	})
	if sum != 6 {
		t.Fatalf("incident weight of 0 = %f, want 6", sum)
	}
}

func TestNeighborsParallelEdges(t *testing.T) {
	g := New(2)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 1, 2)
	if d := degree(g, 0); d != 2 {
		t.Fatalf("parallel edges not counted: deg=%d", d)
	}
}

func TestCapacities(t *testing.T) {
	g := New(3)
	if g.B(0) != 1 || g.TotalB() != 3 {
		t.Fatal("default capacities wrong")
	}
	g.SetB(1, 4)
	if g.B(1) != 4 || g.B(0) != 1 {
		t.Fatal("SetB wrong")
	}
	if g.TotalB() != 6 {
		t.Fatalf("TotalB = %d, want 6", g.TotalB())
	}
	if !g.SetBOdd([]int{0, 1}) { // 1+4 = 5 odd
		t.Fatal("SetBOdd wrong for odd set")
	}
	if g.SetBOdd([]int{0, 2}) { // 1+1 = 2 even
		t.Fatal("SetBOdd wrong for even set")
	}
}

func TestCutIdentities(t *testing.T) {
	r := xrand.New(21)
	g := GNM(20, 60, WeightConfig{Mode: UniformWeights, WMax: 10}, 4)
	for trial := 0; trial < 50; trial++ {
		mask := make([]bool, g.N())
		for i := range mask {
			mask[i] = r.Bernoulli(0.5)
		}
		in, inc := 0.0, 0.0
		for _, e := range g.Edges() {
			if mask[e.U] && mask[e.V] {
				in += e.W
			}
			if mask[e.U] || mask[e.V] {
				inc += e.W
			}
		}
		if diff := inc - in - g.CutWeight(mask); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("Incident != Internal + Cut: %f vs %f + %f", inc, in, g.CutWeight(mask))
		}
	}
	// Complement has the same cut.
	mask := make([]bool, g.N())
	for i := 0; i < 7; i++ {
		mask[i] = true
	}
	comp := make([]bool, g.N())
	for i := range comp {
		comp[i] = !mask[i]
	}
	if a, b := g.CutWeight(mask), g.CutWeight(comp); a != b {
		t.Fatalf("cut not symmetric: %f vs %f", a, b)
	}
}

func TestVertexCutMatchesSingletonCut(t *testing.T) {
	g := GNM(15, 40, WeightConfig{Mode: UniformWeights, WMax: 5}, 9)
	for v := 0; v < g.N(); v++ {
		mask := make([]bool, g.N())
		mask[v] = true
		a := 0.0 // v's weighted degree: the cut of the singleton {v}
		g.Neighbors(v, func(idx int, _ int32) { a += g.Edge(idx).W })
		if b := g.CutWeight(mask); a-b > 1e-9 || b-a > 1e-9 {
			t.Fatalf("vertex %d: weighted degree %f != singleton CutWeight %f", v, a, b)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 1)
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if labels[0] != labels[2] || labels[3] != labels[4] || labels[0] == labels[3] || labels[5] == labels[0] || labels[5] == labels[3] {
		t.Fatalf("bad labels: %v", labels)
	}
}

func TestEnumerateOddSets(t *testing.T) {
	g := New(5) // all b=1: odd sets are subsets of odd size >= 3
	count := 0
	g.EnumerateOddSets(5, func(set []int) bool {
		if len(set)%2 == 0 {
			t.Fatalf("even set enumerated: %v", set)
		}
		count++
		return true
	})
	// C(5,3) + C(5,5) = 10 + 1 = 11
	if count != 11 {
		t.Fatalf("enumerated %d odd sets, want 11", count)
	}
}

func TestEnumerateOddSetsWithB(t *testing.T) {
	g := New(4)
	g.SetB(0, 2) // sets containing 0 have ||U||_b = |U|+1
	count := 0
	g.EnumerateOddSets(4, func(set []int) bool {
		if !g.SetBOdd(set) {
			t.Fatalf("even-b set enumerated: %v", set)
		}
		count++
		return true
	})
	// Size-3 sets: {0,a,b} has norm 4 (even); {1,2,3} has norm 3 (odd) -> 1.
	// Size-4 set {0,1,2,3} has norm 5 (odd) -> 1. Total 2.
	if count != 2 {
		t.Fatalf("enumerated %d, want 2", count)
	}
}

func TestEnumerateStops(t *testing.T) {
	g := New(8)
	count := 0
	g.EnumerateOddSets(5, func(set []int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop failed: %d calls", count)
	}
}
