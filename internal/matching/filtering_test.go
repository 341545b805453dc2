package matching

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
)

// filterDigest hashes a filter run: its matching, its stats and the
// passes it charged the stream.
func filterDigest(m *Matching, st FilterStats, passes int) string {
	h := sha256.New()
	fmt.Fprint(h, m.EdgeIdx, m.Mult, st.Rounds, st.PeakSample, st.EdgesPerRound, st.FinalResidual, passes)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestFilterResultsPinned pins what the filters compute, including the
// passes they charge, on instances that take one round and several:
// the digests were recorded before the filters shared one driver (the
// b-matching one with the zero passes its shared sweeps charge).
func TestFilterResultsPinned(t *testing.T) {
	unit := graph.GNM(300, 20000, graph.WeightConfig{}, 13)
	weighted := graph.GNM(120, 2500, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 100}, 20)
	capped := graph.GNM(100, 2000, graph.WeightConfig{}, 17)
	graph.WithRandomB(capped, 4, false, 18)
	for _, tc := range []struct {
		name string
		run  func(s stream.Source) (*Matching, FilterStats)
		g    *graph.Graph
		want string
	}{
		{"maximal/p=1.2", func(s stream.Source) (*Matching, FilterStats) { return MaximalMatchingFilter(s, 1.2, 14, nil) }, unit, "f6d61b52f57738df"},
		{"maximal/p=4", func(s stream.Source) (*Matching, FilterStats) { return MaximalMatchingFilter(s, 4, 14, nil) }, unit, "35980b800f48c15d"},
		{"weighted/p=2", func(s stream.Source) (*Matching, FilterStats) { return WeightedFilter(s, 2, 21, nil) }, weighted, "b1b5655805e28e89"},
		{"weighted/p=4", func(s stream.Source) (*Matching, FilterStats) { return WeightedFilter(s, 4, 21, nil) }, weighted, "4ecd61e2916e991a"},
		{"b-matching/p=3", func(s stream.Source) (*Matching, FilterStats) {
			ms, st := MaximalBMatchingFilter(s, 3, []uint64{19}, func(graph.Edge) int { return 0 })
			return ms[0], st[0]
		}, capped, "b7cc5eaaa673bbcc"},
	} {
		s := stream.NewEdgeStream(tc.g)
		m, st := tc.run(s)
		if got := filterDigest(m, st, s.Passes()); got != tc.want {
			t.Errorf("%s: digest %s, want %s (rounds %d, passes %d)", tc.name, got, tc.want, st.Rounds, s.Passes())
		}
	}
}

// TestBFilterClassesIndependent checks that the classes of one
// MaximalBMatchingFilter run, which share every sweep, each compute what
// they compute alone, over several rounds, and charge the stream no
// pass.
func TestBFilterClassesIndependent(t *testing.T) {
	g := graph.GNM(150, 6000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, 41)
	graph.WithRandomB(g, 3, false, 42)
	class := func(e graph.Edge) int {
		if e.W < 2 {
			return -1
		}
		return int(e.W) % 3
	}
	seeds := []uint64{5, 6, 7}
	s := stream.NewEdgeStream(g)
	ms, stats := MaximalBMatchingFilter(s, 3, seeds, class)
	if s.Passes() != 0 {
		t.Fatalf("shared sweeps charged %d passes", s.Passes())
	}
	for c, seed := range seeds {
		alone, aloneStats := MaximalBMatchingFilter(stream.NewEdgeStream(g), 3, []uint64{seed}, func(e graph.Edge) int {
			if class(e) == c {
				return 0
			}
			return -1
		})
		if stats[c].Rounds < 2 {
			t.Fatalf("class %d ran %d rounds; the fixture should need several", c, stats[c].Rounds)
		}
		if !reflect.DeepEqual(ms[c], alone[0]) || !reflect.DeepEqual(stats[c], aloneStats[0]) {
			t.Fatalf("class %d differs from its run alone: rounds %d vs %d, matched %d vs %d",
				c, stats[c].Rounds, aloneStats[0].Rounds, len(ms[c].EdgeIdx), len(alone[0].EdgeIdx))
		}
	}
}
