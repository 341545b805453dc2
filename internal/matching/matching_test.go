package matching

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func TestGreedyHalfApprox(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 4 + r.Intn(8)
		m := 3 + r.Intn(12)
		g := graph.GNM(n, m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, seed+3)
		gr := Greedy(g)
		if err := gr.Validate(g); err != nil {
			return false
		}
		if !gr.IsMaximal(g) {
			return false
		}
		opt := bruteForceMWM(g)
		return gr.Weight(g) >= opt/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyBSaturates(t *testing.T) {
	g := graph.New(3)
	g.SetB(0, 3)
	g.SetB(1, 2)
	g.SetB(2, 2)
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 4)
	g.MustAddEdge(0, 2, 3)
	// ExactLimit 1 sends the capacitated instance down the greedy path.
	m, _ := OfflineB(g, OfflineConfig{ExactLimit: 1})
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !m.IsMaximal(g) {
		t.Fatal("greedy b-matching not maximal")
	}
	// Heaviest edge (0,1) gets multiplicity min(3,2)=2, saturating 1.
	if m.EdgeIdx[0] != 0 || m.Mult[0] != 2 {
		t.Fatalf("first pick: idx=%d mult=%d", m.EdgeIdx[0], m.Mult[0])
	}
}

func TestMatchingValidateCatchesViolations(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	bad := &Matching{EdgeIdx: []int{0, 1}}
	if err := bad.Validate(g); err == nil {
		t.Fatal("overlapping matching validated")
	}
	bad2 := &Matching{EdgeIdx: []int{5}}
	if err := bad2.Validate(g); err == nil {
		t.Fatal("out-of-range edge validated")
	}
	bad3 := &Matching{EdgeIdx: []int{0}, Mult: []int{0}}
	if err := bad3.Validate(g); err == nil {
		t.Fatal("zero multiplicity validated")
	}
}

func TestMatchedDegreesAndSize(t *testing.T) {
	g := graph.New(4)
	g.SetB(0, 2)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(0, 2, 1)
	m := &Matching{EdgeIdx: []int{0, 1}, Mult: []int{1, 1}}
	if err := m.Validate(g); err != nil {
		t.Fatalf("vertex 0 holds both edges within b=2: %v", err)
	}
	if m.Size() != 2 {
		t.Fatalf("size %d", m.Size())
	}
}

func TestHopcroftKarpMatchesBlossom(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		nl, nr := 2+r.Intn(6), 2+r.Intn(6)
		m := 2 + r.Intn(nl*nr-1)
		g := graph.Bipartite(nl, nr, m, graph.WeightConfig{Mode: graph.UnitWeights}, seed+9)
		hk, ok := hopcroftKarp(g)
		if !ok {
			return false
		}
		if err := hk.Validate(g); err != nil {
			return false
		}
		return hk.Size() == bruteForceMaxCard(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestHopcroftKarpRejectsOddCycle(t *testing.T) {
	g := graph.TriangleChain(1)
	if _, ok := hopcroftKarp(g); ok {
		t.Fatal("triangle accepted as bipartite")
	}
}

func TestHopcroftKarpPerfectMatching(t *testing.T) {
	// Complete bipartite K_{5,5} has a perfect matching.
	g := graph.Bipartite(5, 5, 25, graph.WeightConfig{}, 10)
	m, ok := hopcroftKarp(g)
	if !ok || m.Size() != 5 {
		t.Fatalf("K55: ok=%v size=%d", ok, m.Size())
	}
}

func TestFilteringMaximal(t *testing.T) {
	g := graph.GNM(200, 4000, graph.WeightConfig{}, 11)
	s := stream.NewEdgeStream(g)
	m, stats := MaximalMatchingFilter(s, 2, 12, nil)
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !m.IsMaximal(g) {
		t.Fatal("filtering result not maximal")
	}
	if stats.Rounds < 1 {
		t.Fatal("no rounds recorded")
	}
	// Maximal matching is a 1/2-approximation to maximum cardinality.
	edges := make([]WEdge, g.M())
	for i, e := range g.Edges() {
		edges[i] = WEdge{e.U, e.V, 1}
	}
	mate, _ := MaxWeightMatching(g.N(), edges, true)
	card := 0
	for v, u := range mate {
		if u >= 0 && int32(v) < u {
			card++
		}
	}
	if m.Size() < card/2 {
		t.Fatalf("filter size %d below half of maximum %d", m.Size(), card)
	}
}

func TestFilteringRoundsScaleWithP(t *testing.T) {
	g := graph.GNM(300, 20000, graph.WeightConfig{}, 13)
	s1 := stream.NewEdgeStream(g)
	_, st1 := MaximalMatchingFilter(s1, 1.2, 14, nil)
	s2 := stream.NewEdgeStream(g)
	_, st2 := MaximalMatchingFilter(s2, 4, 14, nil)
	// Smaller budget (larger p) cannot use fewer rounds than the big
	// budget run, and the peak sample must respect the budget ordering.
	if st2.PeakSample > st1.PeakSample*2 {
		t.Fatalf("p=4 peak %d should be below p=1.2 peak %d", st2.PeakSample, st1.PeakSample)
	}
	if st1.Rounds > st2.Rounds+1 {
		t.Fatalf("rounds: p=1.2 %d vs p=4 %d", st1.Rounds, st2.Rounds)
	}
}

func TestFilteringSurvivorsDecreaseGeometrically(t *testing.T) {
	g := graph.GNM(150, 10000, graph.WeightConfig{}, 15)
	s := stream.NewEdgeStream(g)
	_, stats := MaximalMatchingFilter(s, 2, 16, nil)
	for i := 1; i < len(stats.EdgesPerRound); i++ {
		if stats.EdgesPerRound[i] > stats.EdgesPerRound[i-1] {
			t.Fatalf("survivors increased: %v", stats.EdgesPerRound)
		}
	}
}

func TestBFilteringRespectsCapacities(t *testing.T) {
	g := graph.GNM(100, 2000, graph.WeightConfig{}, 17)
	graph.WithRandomB(g, 4, false, 18)
	s := stream.NewEdgeStream(g)
	ms, _ := MaximalBMatchingFilter(s, 2, []uint64{19}, func(graph.Edge) int { return 0 })
	m := ms[0]
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !m.IsMaximal(g) {
		t.Fatal("b-filtering not maximal")
	}
}

func TestWeightedFilterConstantApprox(t *testing.T) {
	g := graph.GNM(120, 2500, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 100}, 20)
	s := stream.NewEdgeStream(g)
	m, _ := WeightedFilter(s, 2, 21, nil)
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	_, opt := MaxWeightMatchingFloat(g, false)
	if m.Weight(g) < opt/8 {
		t.Fatalf("weighted filter %f below opt/8 (%f)", m.Weight(g), opt/8)
	}
}

func TestOfflineSmallIsExact(t *testing.T) {
	g := graph.GNM(30, 150, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 40}, 22)
	m, w := OfflineB(g, OfflineConfig{})
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	_, exact := MaxWeightMatchingFloat(g, false)
	if math.Abs(w-exact) > 1e-6 {
		t.Fatalf("offline small %f != exact %f", w, exact)
	}
}

func TestOfflineLargeUsesGreedy(t *testing.T) {
	g := graph.GNM(900, 8000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 40}, 23)
	m, w := OfflineB(g, OfflineConfig{ExactLimit: 100})
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if w <= 0 {
		t.Fatal("empty offline matching")
	}
	// The greedy branch is plain greedy, emitted in index order.
	if plain := Greedy(g).Weight(g); math.Abs(w-plain) > 1e-9 {
		t.Fatalf("offline %f != greedy %f", w, plain)
	}
}

func TestOfflineBExactSplitting(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 3 + r.Intn(4)
		m := 2 + r.Intn(6)
		g := graph.GNM(n, m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 10}, seed+31)
		for v := 0; v < n; v++ {
			g.SetB(v, 1+r.Intn(3))
		}
		// Integer weights for exact comparison.
		ig := graph.New(n)
		for _, e := range g.Edges() {
			ig.MustAddEdge(int(e.U), int(e.V), math.Ceil(e.W))
		}
		for v := 0; v < n; v++ {
			ig.SetB(v, g.B(v))
		}
		mm, w := OfflineB(ig, OfflineConfig{})
		if err := mm.Validate(ig); err != nil {
			return false
		}
		want := bruteForceBMatching(ig)
		return math.Abs(w-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// hopcroftKarp computes a maximum-cardinality matching of a bipartite
// graph in O(E sqrt(V)). The bipartition is inferred by 2-coloring each
// connected component; it returns ok=false if the graph is not bipartite.
// It drives the phase-stepping solver the exact algorithm runs.
func hopcroftKarp(g *graph.Graph) (m *Matching, ok bool) {
	h, ok := NewHopcroftKarp(g)
	if !ok {
		return nil, false
	}
	for h.Phase() {
	}
	return h.Matching(), true
}
