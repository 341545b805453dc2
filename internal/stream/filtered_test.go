package stream_test

// The per-level reads of Lemma 20's initial solution, seen from the
// stream: a class of matching.MaximalBMatchingFilter reads a parent
// Source through un-metered block sweeps, keeps only its own edges, and
// must see exactly that subset under the parent's indices without
// charging the parent a pass. The test sits in an external package
// because matching imports stream.

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/stream"
)

// TestFilteredSubsetSemantics runs one filter class over the edges with
// W >= 4 of each backend and checks it against the same filter over the
// subgraph of those edges alone: its first round counts exactly the
// subset, every matched index names a kept edge of the parent, the
// matching is the subgraph's with each index mapped back to its
// parent's, the stats agree, and the parent is charged no pass. Under a
// cancelled guard the class reads nothing.
func TestFilteredSubsetSemantics(t *testing.T) {
	g := graph.GNM(120, 3000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 9}, 23)
	graph.WithRandomB(g, 3, false, 24)
	keep := func(e graph.Edge) bool { return e.W >= 4 }
	classOf := func(e graph.Edge) int {
		if keep(e) {
			return 0
		}
		return -1
	}
	sub := graph.New(g.N())
	for v := 0; v < g.N(); v++ {
		sub.SetB(v, g.B(v))
	}
	var parentIdx []int
	for i, e := range g.Edges() {
		if keep(e) {
			sub.MustAddEdge(int(e.U), int(e.V), e.W)
			parentIdx = append(parentIdx, i)
		}
	}
	const p, seed = 3, 29
	alone, aloneStats := matching.MaximalBMatchingFilter(stream.NewEdgeStream(sub), p, []uint64{seed},
		func(graph.Edge) int { return 0 })
	if aloneStats[0].Rounds < 2 {
		t.Fatalf("the subgraph filter ran %d rounds; the fixture should need several", aloneStats[0].Rounds)
	}
	want := &matching.Matching{EdgeIdx: make([]int, len(alone[0].EdgeIdx)), Mult: alone[0].Mult}
	for j, idx := range alone[0].EdgeIdx {
		want.EdgeIdx[j] = parentIdx[idx]
	}

	path := filepath.Join(t.TempDir(), "edges.rbg2")
	if err := stream.WriteBinaryFile2(path, stream.NewEdgeStream(g)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, bk := range []struct {
		name string
		mk   func(t *testing.T) stream.Source
	}{
		{"EdgeStream", func(*testing.T) stream.Source { return stream.NewEdgeStream(g) }},
		{"FileSourceRBG2", func(t *testing.T) stream.Source {
			src, err := stream.OpenBinary(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { src.Close() })
			return src
		}},
		{"Cancellable", func(*testing.T) stream.Source { return stream.Cancellable(ctx, stream.NewEdgeStream(g)) }},
	} {
		t.Run(bk.name, func(t *testing.T) {
			parent := bk.mk(t)
			ms, stats := matching.MaximalBMatchingFilter(parent, p, []uint64{seed}, classOf)
			if got := stats[0].EdgesPerRound[0]; got != sub.M() {
				t.Fatalf("first round counted %d edges, want the %d kept", got, sub.M())
			}
			for _, idx := range ms[0].EdgeIdx {
				if !keep(g.Edge(idx)) {
					t.Fatalf("matched idx %d is not a kept edge of the parent", idx)
				}
			}
			if !reflect.DeepEqual(ms[0], want) || !reflect.DeepEqual(stats[0], aloneStats[0]) {
				t.Fatalf("class differs from the subgraph run: rounds %d vs %d, matched %d vs %d",
					stats[0].Rounds, aloneStats[0].Rounds, len(ms[0].EdgeIdx), len(want.EdgeIdx))
			}
			// The class's reads charge the parent nothing.
			if parent.Passes() != 0 {
				t.Fatalf("parent charged %d passes by the filter's reads", parent.Passes())
			}
		})
	}

	done, stop := context.WithCancel(context.Background())
	stop()
	guarded := stream.Cancellable(done, stream.NewEdgeStream(g))
	ms, stats := matching.MaximalBMatchingFilter(guarded, p, []uint64{seed}, classOf)
	if len(ms[0].EdgeIdx) != 0 || stats[0].EdgesPerRound[0] != 0 || guarded.Passes() != 0 {
		t.Fatalf("under a cancelled guard: matched %d, counted %d, passes %d, want 0, 0, 0",
			len(ms[0].EdgeIdx), stats[0].EdgesPerRound[0], guarded.Passes())
	}
}
