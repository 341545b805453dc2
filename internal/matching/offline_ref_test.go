package matching

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// Differential pins for the radix order: the reference below is the
// reflective sort.Slice implementation of Greedy and of the local
// augmentation Offline used to run after it, kept verbatim. Offline's
// greedy branch and Greedy must reproduce it exactly — the same matched
// indices in the same order — including on tie-heavy and all-equal
// weights and on edge counts either side of the radix sort's byte
// boundaries.

func refGreedy(g *graph.Graph) *Matching {
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := g.Edge(order[a]), g.Edge(order[b])
		if ea.W != eb.W {
			return ea.W > eb.W
		}
		return order[a] < order[b]
	})
	used := make([]bool, g.N())
	var out Matching
	for _, idx := range order {
		e := g.Edge(idx)
		if !used[e.U] && !used[e.V] {
			used[e.U], used[e.V] = true, true
			out.EdgeIdx = append(out.EdgeIdx, idx)
		}
	}
	return &out
}

func refAugmentOnePass(g *graph.Graph, m *Matching, passes int) *Matching {
	match := make([]int, g.N())
	for i := range match {
		match[i] = -1
	}
	inM := make(map[int]bool)
	for _, idx := range m.EdgeIdx {
		e := g.Edge(idx)
		match[e.U] = idx
		match[e.V] = idx
		inM[idx] = true
	}
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return g.Edge(order[a]).W > g.Edge(order[b]).W })
	for pass := 0; pass < passes; pass++ {
		improved := false
		for _, idx := range order {
			if inM[idx] {
				continue
			}
			e := g.Edge(idx)
			mu, mv := match[e.U], match[e.V]
			drop := 0.0
			if mu >= 0 {
				drop += g.Edge(mu).W
			}
			if mv >= 0 && mv != mu {
				drop += g.Edge(mv).W
			}
			if e.W > drop {
				if mu >= 0 {
					eu := g.Edge(mu)
					match[eu.U], match[eu.V] = -1, -1
					delete(inM, mu)
				}
				if mv >= 0 && mv != mu {
					ev := g.Edge(mv)
					match[ev.U], match[ev.V] = -1, -1
					delete(inM, mv)
				}
				match[e.U], match[e.V] = idx, idx
				inM[idx] = true
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	out := &Matching{}
	//lint:ordered key collection, sort.Ints'd immediately below
	for idx := range inM {
		out.EdgeIdx = append(out.EdgeIdx, idx)
	}
	sort.Ints(out.EdgeIdx)
	return out
}

// refOffline is the greedy branch Offline had before the augmentation
// was shown to be a no-op: Greedy, then three augmentation passes.
func refOffline(g *graph.Graph) *Matching {
	return refAugmentOnePass(g, refGreedy(g), 3)
}

// withWeight copies g with every edge at weight w.
func withWeight(g *graph.Graph, w float64) *graph.Graph {
	out := graph.New(g.N())
	for _, e := range g.Edges() {
		out.MustAddEdge(int(e.U), int(e.V), w)
	}
	return out
}

// offlineShapes lists the instances Offline is checked on: three
// weightings over seeded sizes above the exact limit, plus all-equal
// weights and edge counts just either side of 256 and 65 536.
func offlineShapes() map[string]*graph.Graph {
	const n0 = 601
	weightings := []struct {
		name string
		wc   graph.WeightConfig
	}{
		{"unit", graph.WeightConfig{Mode: graph.UnitWeights}},
		{"powers", graph.WeightConfig{Mode: graph.PowersOf, Eps: 0.25, Levels: 4}},
		{"uniform", graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}},
	}
	out := make(map[string]*graph.Graph)
	for _, wt := range weightings {
		for seed := uint64(1); seed <= 12; seed++ {
			n := n0 + int(seed*37%200)
			m := 3*n + int(seed*911%4000)
			out[fmt.Sprintf("%s/seed%d", wt.name, seed)] = graph.GNM(n, m, wt.wc, seed)
		}
		for _, m := range []int{255, 257, 65535, 65537} {
			out[fmt.Sprintf("%s/m%d", wt.name, m)] = graph.GNM(n0+60, m, wt.wc, uint64(m))
		}
	}
	for _, m := range []int{255, 257, 65535, 65537} {
		g := graph.GNM(n0+60, m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, uint64(m)+1)
		out[fmt.Sprintf("equal/m%d", m)] = withWeight(g, 7.25)
	}
	return out
}

func TestOfflineMatchesSortSliceReference(t *testing.T) {
	shapes := offlineShapes()
	names := slices.Sorted(maps.Keys(shapes))
	// One scratch across every shape, so a stale buffer from a larger
	// previous call would show up as a mismatch on a smaller one.
	var sc OfflineScratch
	for _, name := range names {
		g := shapes[name]
		want := refOffline(g)

		got, w := sc.OfflineB(g, OfflineConfig{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: OfflineScratch.OfflineB differs from the sort.Slice reference", name)
		}
		if w != want.Weight(g) {
			t.Fatalf("%s: weight %v, reference %v", name, w, want.Weight(g))
		}
		if cold, _ := OfflineB(g, OfflineConfig{}); !reflect.DeepEqual(cold, want) {
			t.Fatalf("%s: a fresh scratch's OfflineB differs from the sort.Slice reference", name)
		}
		if gr, ref := Greedy(g), refGreedy(g); !reflect.DeepEqual(gr, ref) {
			t.Fatalf("%s: Greedy differs from the sort.Slice reference", name)
		}
	}
}

// refGreedyB is the greedy b-matching over the reference (weight desc,
// index asc) order.
func refGreedyB(g *graph.Graph) *Matching {
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := g.Edge(order[a]), g.Edge(order[b])
		if ea.W != eb.W {
			return ea.W > eb.W
		}
		return order[a] < order[b]
	})
	resid := make([]int, g.N())
	for v := range resid {
		resid[v] = g.B(v)
	}
	want := Matching{Mult: []int{}}
	for _, idx := range order {
		e := g.Edge(idx)
		c := min(resid[e.U], resid[e.V])
		if c > 0 {
			resid[e.U] -= c
			resid[e.V] -= c
			want.EdgeIdx = append(want.EdgeIdx, idx)
			want.Mult = append(want.Mult, c)
		}
	}
	return &want
}

// TestGreedyBMatchesTotalOrder pins the greedy b-matching's radix order
// against the reference (weight desc, index asc) order on capacitated
// instances above the exact-splitting threshold.
func TestGreedyBMatchesTotalOrder(t *testing.T) {
	shapes := map[string]*graph.Graph{}
	for seed := uint64(1); seed <= 6; seed++ {
		g := graph.GNM(400, 3000, graph.WeightConfig{Mode: graph.PowersOf, Eps: 0.25, Levels: 3}, seed)
		shapes[fmt.Sprintf("powers/seed%d", seed)] = graph.WithRandomB(g, 3, false, seed+50)
	}
	for _, m := range []int{255, 257, 65535, 65537} {
		g := graph.GNM(400, m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, uint64(m))
		shapes[fmt.Sprintf("uniform/m%d", m)] = graph.WithRandomB(g, 3, false, uint64(m)+50)
		shapes[fmt.Sprintf("equal/m%d", m)] = graph.WithRandomB(withWeight(g, 7.25), 3, false, uint64(m)+50)
	}
	var sc OfflineScratch
	for _, name := range slices.Sorted(maps.Keys(shapes)) {
		g := shapes[name]
		want := refGreedyB(g)
		if got, _ := sc.OfflineB(g, OfflineConfig{ExactLimit: 100}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: OfflineScratch.OfflineB differs from the sort.Slice reference", name)
		}
	}
}

// TestMaxWeightMatchingFloatPicksFirstHeaviest pins the matched-pair
// recovery against the pair map it replaced: on multigraphs with
// parallel edges, some of equal weight, each matched pair reports its
// heaviest edge and, among equal weights, the first index.
func TestMaxWeightMatchingFloatPicksFirstHeaviest(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		base := graph.GNM(40, 120, graph.WeightConfig{Mode: graph.PowersOf, Eps: 0.5, Levels: 3}, seed)
		g := graph.New(base.N())
		for i, e := range base.Edges() {
			g.MustAddEdge(int(e.U), int(e.V), e.W)
			if i%3 == 0 { // a parallel copy, reversed, at equal weight
				g.MustAddEdge(int(e.V), int(e.U), e.W)
			}
			if i%5 == 0 { // a lighter parallel copy
				g.MustAddEdge(int(e.U), int(e.V), e.W/2)
			}
		}
		got, w := MaxWeightMatchingFloat(g, false)

		bestIdx := make(map[uint64]int)
		for i, e := range g.Edges() {
			k := e.Key()
			if j, ok := bestIdx[k]; !ok || g.Edge(j).W < e.W {
				bestIdx[k] = i
			}
		}
		var want Matching
		wantW := 0.0
		for _, idx := range got.EdgeIdx {
			e := g.Edge(idx)
			ref := bestIdx[graph.KeyOf(e.U, e.V)]
			want.EdgeIdx = append(want.EdgeIdx, ref)
			wantW += g.Edge(ref).W
		}
		if !reflect.DeepEqual(got, &want) || math.Float64bits(w) != math.Float64bits(wantW) {
			t.Fatalf("seed %d: picks %v (weight %v), pair map picks %v (weight %v)", seed, got.EdgeIdx, w, want.EdgeIdx, wantW)
		}
	}
}
