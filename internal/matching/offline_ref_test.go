package matching

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
)

// Differential pins for the packed-pair sorts: the reference below is
// the reflective sort.Slice implementation of Greedy and AugmentOnePass
// that the packed sorts replaced, kept verbatim. Offline's greedy
// branch, Greedy and AugmentOnePass must reproduce it exactly — the same
// matched indices in the same order — including on tie-heavy weights,
// where AugmentOnePass's weight-only comparator leaves the order of
// equal weights to the sort algorithm itself.

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

// refOffline is the greedy branch of Offline over the reference pair.
func refOffline(g *graph.Graph) *Matching {
	return refAugmentOnePass(g, refGreedy(g), OfflineConfig{}.withDefaults().AugmentPasses)
}

func TestOfflineMatchesSortSliceReference(t *testing.T) {
	weightings := []struct {
		name string
		wc   graph.WeightConfig
	}{
		{"unit", graph.WeightConfig{Mode: graph.UnitWeights}},
		{"powers", graph.WeightConfig{Mode: graph.PowersOf, Eps: 0.25, Levels: 4}},
		{"uniform", graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}},
	}
	// One scratch across every shape, so a stale buffer from a larger
	// previous call would show up as a mismatch on a smaller one.
	var sc OfflineScratch
	for _, wt := range weightings {
		for seed := uint64(1); seed <= 12; seed++ {
			n := 601 + int(seed*37%200)
			m := 3*n + int(seed*911%4000)
			g := graph.GNM(n, m, wt.wc, seed)
			want := refOffline(g)

			got, w := sc.OfflineB(g, OfflineConfig{})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: OfflineScratch.OfflineB differs from the sort.Slice reference", wt.name, seed)
			}
			if w != want.Weight(g) {
				t.Fatalf("%s seed %d: weight %v, reference %v", wt.name, seed, w, want.Weight(g))
			}
			if cold, _ := Offline(g, OfflineConfig{}); !reflect.DeepEqual(cold, want) {
				t.Fatalf("%s seed %d: Offline differs from the sort.Slice reference", wt.name, seed)
			}
			if gr, ref := Greedy(g), refGreedy(g); !reflect.DeepEqual(gr, ref) {
				t.Fatalf("%s seed %d: Greedy differs from the sort.Slice reference", wt.name, seed)
			}
			// AugmentOnePass from a matching Greedy did not produce:
			// arrival order, so the swaps start from a different point.
			start := GreedyArrival(g)
			for _, passes := range []int{1, 3} {
				got, ref := AugmentOnePass(g, start, passes), refAugmentOnePass(g, start, passes)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s seed %d passes %d: AugmentOnePass differs from the sort.Slice reference", wt.name, seed, passes)
				}
			}
		}
	}
}

// TestGreedyBMatchesTotalOrder pins GreedyB's packed sort against the
// reference (weight desc, index asc) order on capacitated instances
// above the exact-splitting threshold.
func TestGreedyBMatchesTotalOrder(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := graph.WithRandomB(graph.GNM(400, 3000, graph.WeightConfig{Mode: graph.PowersOf, Eps: 0.25, Levels: 3}, seed), 3, false, seed+50)
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
		if got := GreedyB(g); !reflect.DeepEqual(got, &want) {
			t.Fatalf("seed %d: GreedyB differs from the sort.Slice reference", seed)
		}
		var sc OfflineScratch
		if got, _ := sc.OfflineB(g, OfflineConfig{ExactLimit: 100}); !reflect.DeepEqual(got, &want) {
			t.Fatalf("seed %d: OfflineScratch.OfflineB differs from the sort.Slice reference", seed)
		}
	}
}
