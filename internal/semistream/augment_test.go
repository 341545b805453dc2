package semistream

// AugmentRound against the round it replaced. augmentRoundMap below is
// that round, with its state in maps keyed by edge index; the
// index-addressed round must return the same set, the same augmented
// flag and the same float bits of delta, round after round, on every
// stream backend.

import (
	"context"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// augmentRoundMap is the edge-keyed augmentation round, kept as the
// reference: cur is the matched edge-index set, mutated in place.
func augmentRoundMap(s stream.Source, cur map[int]bool) (bool, float64) {
	n := s.N()
	matchAt := make([]int, n)
	for i := range matchAt {
		matchAt[i] = -1
	}
	edgeOf := make(map[int]graph.Edge, len(cur))
	stream.ForEachBlocks(s, func(base int, edges []graph.Edge) bool {
		for i := range edges {
			if idx := base + i; cur[idx] {
				matchAt[edges[i].U] = idx
				matchAt[edges[i].V] = idx
				edgeOf[idx] = edges[i]
			}
		}
		return true
	})
	type wings struct {
		uWing, vWing int // edge indices, -1 if none
		uFree, vFree int32
		uW, vW       float64
		matched      graph.Edge
		matchedIdx   int
	}
	byMatched := map[int]*wings{}
	freeTaken := make([]bool, n)
	stream.ForEachBlocks(s, func(base int, edges []graph.Edge) bool {
		for i := range edges {
			idx, e := base+i, edges[i]
			if cur[idx] {
				continue
			}
			fu, fv := matchAt[e.U] == -1, matchAt[e.V] == -1
			if fu == fv {
				continue
			}
			free, anchored := e.U, e.V
			if fv {
				free, anchored = e.V, e.U
			}
			mi := matchAt[anchored]
			w := byMatched[mi]
			if w == nil {
				me := edgeOf[mi]
				w = &wings{uWing: -1, vWing: -1, matched: me, matchedIdx: mi}
				byMatched[mi] = w
			}
			if anchored == w.matched.U && w.uWing == -1 {
				w.uWing, w.uFree, w.uW = idx, free, e.W
			} else if anchored == w.matched.V && w.vWing == -1 {
				w.vWing, w.vFree, w.vW = idx, free, e.W
			}
		}
		return true
	})
	matchedIdxs := sortedKeys(byMatched)
	augmented := false
	delta := 0.0
	for _, mi := range matchedIdxs {
		w := byMatched[mi]
		if w.uWing == -1 || w.vWing == -1 || w.uFree == w.vFree {
			continue
		}
		if freeTaken[w.uFree] || freeTaken[w.vFree] {
			continue
		}
		freeTaken[w.uFree] = true
		freeTaken[w.vFree] = true
		delete(cur, w.matchedIdx)
		cur[w.uWing] = true
		cur[w.vWing] = true
		delta += w.uW + w.vW - w.matched.W
		augmented = true
	}
	return augmented, delta
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	//lint:ordered key collection, sorted immediately below
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// multigraph returns a random graph on n vertices with m edges, about a
// third of them parallel to an earlier edge (either orientation), with
// weights uniform in [1, 25].
func multigraph(r *xrand.RNG, n, m int) *graph.Graph {
	g := graph.New(n)
	for g.M() < m {
		w := 1 + 24*r.Float64()
		if g.M() > 0 && r.Bernoulli(0.3) {
			e := g.Edges()[r.Intn(g.M())]
			if r.Bernoulli(0.5) {
				e.U, e.V = e.V, e.U
			}
			g.MustAddEdge(int(e.U), int(e.V), w)
			continue
		}
		if u, v := r.Intn(n), r.Intn(n); u != v {
			g.MustAddEdge(u, v, w)
		}
	}
	return g
}

// halfMatching returns a matching that is rarely maximal: edges in
// random order, each taken with probability 1/2 when both endpoints are
// free. Indices ascending.
func halfMatching(r *xrand.RNG, g *graph.Graph) []int {
	used := make([]bool, g.N())
	var out []int
	for _, i := range r.Perm(g.M()) {
		e := g.Edges()[i]
		if !used[e.U] && !used[e.V] && r.Bernoulli(0.5) {
			used[e.U], used[e.V] = true, true
			out = append(out, i)
		}
	}
	slices.Sort(out)
	return out
}

// truncating ends metered pass cut (1-based, counted by this wrapper)
// once after edges have been handed on, and delivers nothing in the
// passes after it, as the engine's guard does once its context is
// cancelled. It implements only the per-edge sweeps, so the block
// sweeps reach it through stream's batching fallback.
type truncating struct {
	stream.Source
	passes, cut, after int
}

func (t *truncating) ForEach(f func(idx int, e graph.Edge) bool) {
	t.passes++
	if t.cut == 0 || t.passes < t.cut {
		t.Source.ForEach(f)
		return
	}
	handed := 0
	if t.passes > t.cut {
		handed = t.after
	}
	t.Source.ForEach(func(idx int, e graph.Edge) bool {
		if handed == t.after {
			return false
		}
		handed++
		return f(idx, e)
	})
}

// sameRound runs one round of both implementations and fails unless
// they agree on the set, the flag and the bits of delta.
func sameRound(t *testing.T, label string, ref map[int]bool, refSrc stream.Source, cur []int, src stream.Source, sc *AugmentScratch) ([]int, bool) {
	t.Helper()
	wantAug, wantDelta := augmentRoundMap(refSrc, ref)
	passes := src.Passes()
	next, aug, delta := AugmentRound(context.Background(), src, cur, sc)
	if got := src.Passes() - passes; got != 2 {
		t.Fatalf("%s: round took %d passes, want 2", label, got)
	}
	if want := sortedKeys(ref); !slices.Equal(next, want) {
		t.Fatalf("%s: set of %d edges, reference %d", label, len(next), len(want))
	}
	if aug != wantAug || math.Float64bits(delta) != math.Float64bits(wantDelta) {
		t.Fatalf("%s: augmented %v delta %v, reference %v %v", label, aug, delta, wantAug, wantDelta)
	}
	return next, aug
}

func TestAugmentRoundMatchesMapReference(t *testing.T) {
	r := xrand.New(23)
	var sc AugmentScratch // one scratch across every instance, n and size
	rounds, augmenting := 0, 0
	for trial := 0; trial < 4; trial++ {
		m := 2*stream.BlockEdges + r.Intn(2*stream.BlockEdges)
		n := 300 + r.Intn(2*m)
		g := multigraph(r, n, m)
		path := filepath.Join(t.TempDir(), "g.rbg2")
		if err := stream.WriteBinaryFile2(path, stream.NewEdgeStream(g)); err != nil {
			t.Fatal(err)
		}
		file, err := stream.OpenBinary(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		gen, err := stream.NewGen(stream.GenSpec{N: n, M: m, Seed: r.Uint64(),
			Weights: graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}})
		if err != nil {
			t.Fatal(err)
		}
		genG := stream.Materialize(gen)
		for _, b := range []struct {
			name string
			src  stream.Source
			g    *graph.Graph
		}{{"memory", stream.NewEdgeStream(g), g}, {"rbg2", file, g}, {"generator", gen, genG}} {
			starts := map[string][]int{
				"greedy": onePassGreedy(b.src).EdgeIdx,
				"half":   halfMatching(r, b.g),
			}
			for _, start := range []string{"greedy", "half"} {
				label := b.name + "/" + start
				// Rounds until nothing augments.
				ref := map[int]bool{}
				for _, i := range starts[start] {
					ref[i] = true
				}
				cur := starts[start]
				for round := 0; ; round++ {
					next, aug := sameRound(t, label, ref, b.src, cur, b.src, &sc)
					if err := (&matching.Matching{EdgeIdx: next}).Validate(b.g); err != nil {
						t.Fatalf("%s round %d: %v", label, round, err)
					}
					rounds++
					cur = next
					if !aug {
						break
					}
					augmenting++
				}
				// One round cut short in either pass, as a cancelled
				// sweep ends it.
				ref = map[int]bool{}
				for _, i := range starts[start] {
					ref[i] = true
				}
				cut, after := 1+r.Intn(2), r.Intn(m)
				sameRound(t, label+"/cut", ref, &truncating{Source: b.src, cut: cut, after: after},
					starts[start], &truncating{Source: b.src, cut: cut, after: after}, &sc)
			}
		}
	}
	t.Logf("%d of %d rounds augmented", augmenting, rounds)
	if augmenting == 0 || augmenting == rounds {
		t.Fatalf("%d of %d rounds augmented: the instances exercise one branch only", augmenting, rounds)
	}
}

// TestAugmentRoundReturnsScratchSets checks the returned slice's
// lifetime: it survives the next round, which reads it as cur, and the
// round after that reuses its backing array.
func TestAugmentRoundReturnsScratchSets(t *testing.T) {
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1) // wing
	g.MustAddEdge(1, 2, 1) // matched
	g.MustAddEdge(2, 3, 1) // wing
	g.MustAddEdge(4, 5, 1) // matched, no wings
	s := stream.NewEdgeStream(g)
	var sc AugmentScratch
	cur := []int{1, 3}
	first, aug, delta := AugmentRound(context.Background(), s, cur, &sc)
	if !aug || delta != 1 || !slices.Equal(first, []int{0, 2, 3}) {
		t.Fatalf("first round: %v %v %v", first, aug, delta)
	}
	if !slices.Equal(cur, []int{1, 3}) {
		t.Fatalf("cur modified: %v", cur)
	}
	second, aug, _ := AugmentRound(context.Background(), s, first, &sc)
	if aug || !slices.Equal(second, first) || !slices.Equal(first, []int{0, 2, 3}) {
		t.Fatalf("second round: %v from %v (augmented %v)", second, first, aug)
	}
	third, _, _ := AugmentRound(context.Background(), s, second, &sc)
	if &third[0] != &first[0] {
		t.Fatal("third round did not reuse the first round's set")
	}
}
