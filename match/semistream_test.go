package match_test

// Pins of the semi-streaming baselines through the facade, in the style
// of TestSolvePinnedOnCorpus: JSON digests of greedy and greedy-augment
// solves over the corpus, the backend suite, a rounds-budget trip and
// cancellations inside round 1's two augmentation passes. They were
// recorded before greedy-augment's round state moved from maps keyed by
// edge index to arrays addressed by vertex and matched position, which
// had to leave all of them unchanged. The two cancellation cases were
// re-recorded when a round learned to stop at the pass it is cancelled
// in.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

// semistreamCorpusDigests pins, per corpus family, the cold greedy
// solve, the cold greedy-augment solve and a greedy-augment solve under
// Budget{Rounds: 2} (seed 7; every digest holds for workers 1 and 4).
var semistreamCorpusDigests = map[string][3]string{
	"gnm-uniform": {"3b1d77c470f88f6b", "323284fe5d088c9f", "0fab65133414a45d"},
	"gnm-powers":  {"2fd461935b1a1bd9", "71967c729a5cf090", "11665593ba204b4e"},
	"gnm-exp":     {"d7b35bbf3fa3a648", "ed54a2edf3c6cc1f", "2abededd190ccb8f"},
	"powerlaw":    {"19dbcec9fd73cd93", "a37583b969a343d4", "74076c57afb82905"},
	"triangles":   {"2bd5b5be63f823b1", "fc3c7746198c94cf", "fc3c7746198c94cf"},
	"bipartite":   {"0979dff5edc6b4ff", "96170e4733e7543c", "3a312a5c241f200c"},
	"bmatching":   {"1a63d0d3fbf38ccf", "cc8a6524de1d79d4", "cc8a6524de1d79d4"},
}

// semistreamOpts returns the options of the semi-streaming pins.
func semistreamOpts(algo string, workers int) []match.Option {
	return []match.Option{match.WithAlgorithm(algo), match.WithSeed(7), match.WithWorkers(workers)}
}

func TestSemiStreamPinnedOnCorpus(t *testing.T) {
	ctx := context.Background()
	for name, g := range corpus() {
		for _, workers := range []int{1, 4} {
			var got [3]string
			for i, algo := range []string{"greedy", "greedy-augment"} {
				solver, err := match.New(semistreamOpts(algo, workers)...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := solver.Solve(ctx, stream.NewEdgeStream(g))
				if err != nil {
					t.Fatalf("%s/%s: %v", name, algo, err)
				}
				got[i] = jsonDigest(t, res)
			}
			solver, err := match.New(semistreamOpts("greedy-augment", workers)...)
			if err != nil {
				t.Fatal(err)
			}
			// Triangles and bmatching stop augmenting within two rounds,
			// so only the other five trip.
			trip, err := solver.Solve(ctx, stream.NewEdgeStream(g), match.WithBudget(match.Budget{Rounds: 2}))
			if err != nil && !errors.Is(err, match.ErrBudgetExceeded) {
				t.Fatalf("%s: rounds budget: err = %v", name, err)
			}
			got[2] = jsonDigest(t, trip)
			if want := semistreamCorpusDigests[name]; got != want {
				t.Errorf("%s workers=%d: digests %q, pinned %q", name, workers, got, want)
			}
		}
	}
}

// semistreamBackendDigests pins the greedy and greedy-augment solves of
// the backend suite's instance, for every backend and worker count.
var semistreamBackendDigests = map[string]string{
	"greedy":         "0c35183fb9e2f9ed",
	"greedy-augment": "0ffe6921b580b1b3",
}

func TestSemiStreamPinnedAcrossBackends(t *testing.T) {
	backends := pinnedBackends(t)
	for _, algo := range []string{"greedy", "greedy-augment"} {
		for _, workers := range []int{1, 0} {
			solver, err := match.New(semistreamOpts(algo, workers)...)
			if err != nil {
				t.Fatal(err)
			}
			for name, src := range backends {
				res, err := solver.Solve(context.Background(), src)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", algo, name, workers, err)
				}
				if got, want := jsonDigest(t, res), semistreamBackendDigests[algo]; got != want {
					t.Errorf("%s/%s workers=%d: digest %s, pinned %s", algo, name, workers, got, want)
				}
			}
		}
	}
}

// TestGreedyAugmentCancelledMidRoundPinned pins greedy-augment cancelled
// inside round 1, once metered pass 2 (which locates the matched edges)
// or pass 3 (which collects the wings) has handed on edge
// 2·BlockEdges: the pass ends at the next block boundary, the round
// stops after it without starting another pass or augmenting, and the
// result is greedy's matching. The instance is four blocks long and
// sparse enough that greedy leaves length-3 augmenting paths, so a
// round that resolved what it had read would return more edges.
func TestGreedyAugmentCancelledMidRoundPinned(t *testing.T) {
	g := graph.GNM(4000, 16000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 47)
	for _, tc := range []struct {
		pass, passes int // cancelled pass, passes charged
		want         string
	}{{2, 2, "f102afa0257b1902"}, {3, 3, "e02234dd857530d1"}} {
		solver, err := match.New(semistreamOpts("greedy-augment", 1)...)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		res, err := solver.Solve(ctx, &cancelAfterEdge{Source: stream.NewEdgeStream(g), at: tc.pass, after: 2 * stream.BlockEdges, cancel: cancel})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pass %d: err = %v, want context.Canceled", tc.pass, err)
		}
		if res.Stats.Passes != tc.passes {
			t.Fatalf("pass %d: aborted after %d passes, want %d", tc.pass, res.Stats.Passes, tc.passes)
		}
		if got := jsonDigest(t, res); got != tc.want {
			t.Errorf("pass %d: digest %s, pinned %s", tc.pass, got, tc.want)
		}
	}
}
