package match_test

// The acceptance gate of the facade: match.Solver.Solve pins its
// public Result outright. Each digest is a hash of the Result's JSON
// (exact float bits via the shortest round-tripping encoding, exact
// matching indices, every Stats field), recorded before the dual-primal
// solver moved onto the shared engine.Session path, which had to leave
// all of them unchanged. The corpus is the 7 instance families × 2
// worker counts of the historical 14-run corpus; each run also pins a
// warm-started repeat (WithInitialDuals) and a Budget{Rounds: 2} trip.
// The backend suite pins the same edge sequence behind all four stream
// backends, and the lean-profile pin an instance whose sparsifier
// constructions sample.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

// corpus returns the 7 instance families of the pinned corpus (the same
// families internal/core's worker bit-identity suite uses).
func corpus() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnm-uniform": graph.GNM(64, 512, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 40}, 101),
		"gnm-powers":  graph.GNM(48, 300, graph.WeightConfig{Mode: graph.PowersOf, Eps: 0.25, Levels: 10}, 102),
		"gnm-exp":     graph.GNM(56, 400, graph.WeightConfig{Mode: graph.ExpWeights, Scale: 2}, 103),
		"powerlaw":    graph.PowerLaw(64, 10, 2.5, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, 104),
		"triangles":   graph.TriangleChain(16),
		"bipartite":   graph.BipartiteParallel(24, 24, 200, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 12}, 105, 2),
		"bmatching":   graph.WithRandomB(graph.GNM(40, 260, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 15}, 106), 3, false, 107),
	}
}

// jsonDigest hashes a public Result's JSON form.
func jsonDigest(t *testing.T, res *match.Result) string {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("result not JSON-marshalable: %v", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])[:16]
}

// corpusDigests pins, per family, the cold solve, a warm repeat seeded
// from it, and a two-round budget trip (eps 0.25, p 2, seed 7; every
// digest holds for workers 1 and 4).
var corpusDigests = map[string][3]string{
	"gnm-uniform": {"aa72cbedbcdb5644", "6eaf41d491c404dd", "faea1cdcdd172406"},
	"gnm-powers":  {"dfaf3e26baf2bb2c", "7510acb632c9e1e4", "0e7a54759b053cc5"},
	"gnm-exp":     {"45ddb18945cb84d9", "12a2a71392a290fe", "13507a991b84e56b"},
	"powerlaw":    {"d372847a799f714d", "1602508d4cad030e", "84d58bd44d913d6a"},
	"triangles":   {"f678260349d96109", "c9ef463f89ebd273", "ce154b0e0ea63522"},
	"bipartite":   {"6be506329ad78a6c", "a18226e8ea929270", "9fdf06389e30820f"},
	"bmatching":   {"18a5026588084fd7", "4ceabfc2165f5b09", "b1cf2389599daebc"},
}

func TestSolvePinnedOnCorpus(t *testing.T) {
	ctx := context.Background()
	for name, g := range corpus() {
		for _, workers := range []int{1, 4} {
			solver, err := match.New(match.WithEps(0.25), match.WithSpaceExponent(2),
				match.WithSeed(7), match.WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cold, err := solver.Solve(ctx, stream.NewEdgeStream(g))
			if err != nil {
				t.Fatalf("%s: cold: %v", name, err)
			}
			if cold.Eps != 0.25 {
				t.Errorf("%s: solve-time eps not baked into the result: %v", name, cold.Eps)
			}
			warm, err := solver.Solve(ctx, stream.NewEdgeStream(g), match.WithInitialDuals(cold))
			if err != nil {
				t.Fatalf("%s: warm: %v", name, err)
			}
			trip, err := solver.Solve(ctx, stream.NewEdgeStream(g), match.WithBudget(match.Budget{Rounds: 2}))
			if !errors.Is(err, match.ErrBudgetExceeded) {
				t.Fatalf("%s: rounds budget: err = %v, want ErrBudgetExceeded", name, err)
			}
			got := [3]string{jsonDigest(t, cold), jsonDigest(t, warm), jsonDigest(t, trip)}
			if want := corpusDigests[name]; got != want {
				t.Errorf("%s workers=%d: digests %q, pinned %q", name, workers, got, want)
			}
		}
	}
}

// backendDigest pins the seed-9 default solve of the backend suite's
// instance, for every backend and worker count.
const backendDigest = "2c3d513f9849ad20"

// pinnedBackends returns the backend suite's instance (n 72, m 700,
// uniform weights to 30, generator seed 21) behind all four stream
// backends: in memory, an RBG1 file, the generator itself and two
// concatenated halves.
func pinnedBackends(t *testing.T) map[string]match.Source {
	t.Helper()
	spec := stream.GenSpec{N: 72, M: 700,
		Weights: graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, Seed: 21}
	gen, err := stream.NewGen(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := stream.Materialize(gen)
	path := filepath.Join(t.TempDir(), "inst.rbg")
	if err := stream.WriteBinaryFile(path, stream.NewEdgeStream(g)); err != nil {
		t.Fatal(err)
	}
	file, err := stream.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	genFresh, err := stream.NewGen(spec)
	if err != nil {
		t.Fatal(err)
	}
	half := g.M() / 2
	a, b := graph.New(g.N()), graph.New(g.N())
	for i, e := range g.Edges() {
		dst := a
		if i >= half {
			dst = b
		}
		dst.MustAddEdge(int(e.U), int(e.V), e.W)
	}
	concat, err := stream.Concat(stream.NewEdgeStream(a), stream.NewEdgeStream(b))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]match.Source{
		"memory":    stream.NewEdgeStream(g),
		"file":      file,
		"generator": genFresh,
		"sharded":   concat,
	}
}

func TestSolvePinnedAcrossBackends(t *testing.T) {
	// The same edge sequence behind all four backends, for sequential
	// and sharded pipelines.
	backends := pinnedBackends(t)
	for _, workers := range []int{1, 0} {
		solver, err := match.New(match.WithSeed(9), match.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range backends {
			pub, err := solver.Solve(context.Background(), src)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if got := jsonDigest(t, pub); got != backendDigest {
				t.Errorf("%s workers=%d: digest %s, pinned %s", name, workers, got, backendDigest)
			}
		}
	}
}

// leanDigests pins the cold, warm and Budget{Rounds: 2} solves of a
// lean-profile instance: GNM(200, 9 000) with unit weights, two forests
// per sparsifier and χ = 1 (eps 0.3, p 2, seed 7; workers 1 and 4). The
// corpus runs the default profile, whose 24·⌈χ²⌉ forests a level keep
// every edge at its sizes; here the constructions sample (9 000 edges
// against 2·199 forest edges per level and class), so a change to what
// a forest keeps changes these digests.
var leanDigests = [3]string{"db0763c72e53d083", "c8d3a537af8287dd", "5031c3b768b0967c"}

func TestSolvePinnedLeanProfile(t *testing.T) {
	ctx := context.Background()
	g := graph.GNM(200, 9000, graph.WeightConfig{}, 43)
	prof := match.Practical(0.3)
	prof.SparsifierK = 2
	prof.ChiOverride = 1
	for _, workers := range []int{1, 4} {
		solver, err := match.New(match.WithEps(0.3), match.WithSpaceExponent(2), match.WithProfile(prof),
			match.WithSeed(7), match.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := solver.Solve(ctx, stream.NewEdgeStream(g))
		if err != nil {
			t.Fatalf("cold: %v", err)
		}
		warm, err := solver.Solve(ctx, stream.NewEdgeStream(g), match.WithInitialDuals(cold))
		if err != nil {
			t.Fatalf("warm: %v", err)
		}
		trip, err := solver.Solve(ctx, stream.NewEdgeStream(g), match.WithBudget(match.Budget{Rounds: 2}))
		if !errors.Is(err, match.ErrBudgetExceeded) {
			t.Fatalf("rounds budget: err = %v, want ErrBudgetExceeded", err)
		}
		if got := [3]string{jsonDigest(t, cold), jsonDigest(t, warm), jsonDigest(t, trip)}; got != leanDigests {
			t.Errorf("workers=%d: digests %q, pinned %q", workers, got, leanDigests)
		}
	}
}
