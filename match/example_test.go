package match_test

// Runnable godoc examples for the public facade: the basic one-shot
// solve, a budgeted solve with best-so-far semantics, and algorithm
// selection through the registry. `go test` executes these and pins the
// printed output, so the documented usage can never drift from the
// actual API.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

// exampleGraph is a small deterministic weighted instance shared by the
// examples.
func exampleGraph() *graph.Graph {
	return graph.GNM(40, 200, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 20}, 3)
}

func ExampleSolve() {
	g := exampleGraph()
	res, err := match.Solve(context.Background(), stream.NewEdgeStream(g),
		match.WithEps(0.25),
		match.WithSpaceExponent(2),
		match.WithSeed(5),
		match.WithWorkers(1),
	)
	if err != nil {
		fmt.Println("solve:", err)
		return
	}
	fmt.Printf("matched %d edges, weight %.2f\n", res.Matching.Size(), res.Weight)
	fmt.Printf("resources: %d sampling rounds, %d passes\n",
		res.Stats.SamplingRounds, res.Stats.Passes)
	// Output:
	// matched 20 edges, weight 356.98
	// resources: 25 sampling rounds, 53 passes
}

func ExampleWithBudget() {
	g := exampleGraph()
	// Two adaptive rounds, then the exchange must act: the engine stops
	// at the boundary and hands back the best feasible matching so far.
	res, err := match.Solve(context.Background(), stream.NewEdgeStream(g),
		match.WithSeed(5),
		match.WithWorkers(1),
		match.WithBudget(match.Budget{Rounds: 2}),
	)
	if errors.Is(err, match.ErrBudgetExceeded) {
		var be *match.BudgetError
		errors.As(err, &be)
		fmt.Printf("budget tripped on %s (limit %d)\n", be.Axis, be.Limit)
	} else if err != nil {
		fmt.Println("solve:", err)
		return
	}
	fmt.Printf("best-so-far: %d edges after %d rounds\n",
		res.Matching.Size(), res.Stats.SamplingRounds)
	// Output:
	// budget tripped on rounds (limit 2)
	// best-so-far: 20 edges after 2 rounds
}

func ExampleWithAlgorithm() {
	g := exampleGraph()
	// The same instance through two substrates of the registry: the
	// default dual-primal solver and the one-pass greedy baseline. Both
	// run under the same engine driver, so the resource meters compare
	// like for like.
	for _, name := range []string{match.DefaultAlgorithm, "greedy"} {
		res, err := match.Solve(context.Background(), stream.NewEdgeStream(g),
			match.WithAlgorithm(name),
			match.WithSeed(5),
			match.WithWorkers(1),
		)
		if err != nil {
			fmt.Println(name, "->", err)
			continue
		}
		fmt.Printf("%s: weight %.2f in %d passes\n", name, res.Weight, res.Stats.Passes)
	}
	// Output:
	// dual-primal: weight 356.98 in 53 passes
	// greedy: weight 193.90 in 1 passes
}

func ExampleWithInitialDuals() {
	g := exampleGraph()
	// One Solver = one reusable session. Re-solving the same (or a
	// slowly drifting) instance with the previous solution's duals
	// installed converges in far fewer rounds — the repeat-solve shape
	// of a server answering a stream of related instances.
	solver, err := match.New(match.WithSeed(5), match.WithWorkers(1), match.WithEps(0.3))
	if err != nil {
		fmt.Println("configure:", err)
		return
	}
	ctx := context.Background()
	src := stream.NewEdgeStream(g)
	var prev *match.Result
	for i := 1; i <= 3; i++ {
		var extra []match.Option
		if prev != nil {
			extra = append(extra, match.WithInitialDuals(prev))
		}
		res, err := solver.Solve(ctx, src, extra...)
		if err != nil {
			fmt.Println("solve:", err)
			return
		}
		fmt.Printf("solve %d: weight %.2f in %d rounds (warm=%v)\n",
			i, res.Weight, res.Stats.SamplingRounds, res.Stats.WarmStarted)
		prev = res
	}
	// Output:
	// solve 1: weight 356.98 in 21 rounds (warm=false)
	// solve 2: weight 356.98 in 10 rounds (warm=true)
	// solve 3: weight 356.98 in 1 rounds (warm=true)
}

func ExampleAlgorithms() {
	for _, info := range match.Algorithms() {
		fmt.Printf("%s (%s)\n", info.Name, info.Model)
	}
	// Output:
	// clique-maximal (congested clique (simulated))
	// dual-primal (semi-streaming / MPC / clique (Ahn–Guha))
	// greedy (semi-streaming)
	// greedy-augment (semi-streaming)
	// hopcroft-karp (offline (exact baseline))
}
