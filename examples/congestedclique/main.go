// Congested clique example: n players (one per vertex) cooperate to
// build a maximal b-matching, each sending at most ~n^(1/p) edge words
// per round — the regime of the paper's distributed corollary ("O(p/ε)
// rounds and O(n^(1/p)) size message per vertex").
//
// A centralized reference run through the public match solver closes the
// loop: the distributed players' maximal matching is compared against
// the dual-primal (1-ε) answer on the same instance.
//
//	go run ./examples/congestedclique
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

func main() {
	n := 300
	g := graph.GNM(n, 15000, graph.WeightConfig{}, 21)
	for _, p := range []float64{1.5, 2, 3} {
		res := congest.MaximalMatchingClique(g, p, 31, 0)
		// Validate the result centrally.
		m, _ := res.Matching(g)
		status := "MAXIMAL"
		if err := m.Validate(g); err != nil {
			status = "INVALID: " + err.Error()
		} else if !m.IsMaximal(g) {
			status = "not maximal"
		}
		budget := int(math.Ceil(math.Pow(float64(n), 1/p)))
		fmt.Printf("p=%.1f: matched %d edges in %d rounds; per-vertex message <= %d words (budget n^(1/p)=%d) [%s]\n",
			p, len(res.Pairs), res.Stats.Rounds, res.MaxSampleMsgWords, budget, status)
	}

	// The same protocol through the public facade: the engine driver
	// owns the loop, so the clique rounds land on the same Stats meters
	// (and under the same budgets) as every other algorithm.
	viaFacade, err := match.Solve(context.Background(), stream.NewEdgeStream(g),
		match.WithAlgorithm("clique-maximal"), match.WithSpaceExponent(2), match.WithSeed(31))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("via match.WithAlgorithm(%q): %d edges, %d driver rounds = simulated clique rounds\n",
		"clique-maximal", viaFacade.Matching.Size(), viaFacade.Stats.SamplingRounds)

	// Centralized reference: the (1-ε) dual-primal solver through the
	// public facade, on the same instance.
	ref, err := match.Solve(context.Background(), stream.NewEdgeStream(g),
		match.WithEps(0.25), match.WithSpaceExponent(2), match.WithSeed(31))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference: dual-primal (eps=0.25) matches %d edges in %d+%d rounds — maximal matching is its 1/2-approximation floor\n",
		ref.Matching.Size(), ref.Stats.InitRounds, ref.Stats.SamplingRounds)
}
