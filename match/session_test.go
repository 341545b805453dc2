package match_test

// Session reuse and warm-started duals through the public facade: a
// Solver solved twice must be bit-identical to two fresh Solvers (the
// cached session retains capacity, never state), warm starts must
// reduce the work of repeat solves without weakening the certificate,
// and an invalid snapshot must fall back to the certified cold start
// bit-identically to a never-warmed run.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

// assertSameResult compares two public results bit for bit.
func assertSameResult(t *testing.T, label string, want, got *match.Result) {
	t.Helper()
	if math.Float64bits(want.Weight) != math.Float64bits(got.Weight) {
		t.Errorf("%s: Weight %v != %v", label, got.Weight, want.Weight)
	}
	if math.Float64bits(want.DualObjective) != math.Float64bits(got.DualObjective) {
		t.Errorf("%s: DualObjective %v != %v", label, got.DualObjective, want.DualObjective)
	}
	if math.Float64bits(want.Lambda) != math.Float64bits(got.Lambda) {
		t.Errorf("%s: Lambda %v != %v", label, got.Lambda, want.Lambda)
	}
	if !reflect.DeepEqual(want.Matching, got.Matching) {
		t.Errorf("%s: matchings differ", label)
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Errorf("%s: stats differ\nwant: %+v\ngot:  %+v", label, want.Stats, got.Stats)
	}
}

// TestSolverReuseBitIdenticalOnCorpus is the facade-level reuse gate:
// for every corpus family and both the default and a registry
// algorithm, one Solver solved twice equals two cold solves exactly.
func TestSolverReuseBitIdenticalOnCorpus(t *testing.T) {
	ctx := context.Background()
	for name, g := range corpus() {
		for _, algo := range []string{match.DefaultAlgorithm, "greedy-augment"} {
			opts := []match.Option{match.WithSeed(7), match.WithWorkers(1), match.WithAlgorithm(algo)}
			coldSolver, err := match.New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := coldSolver.Solve(ctx, stream.NewEdgeStream(g))
			if err != nil {
				t.Fatalf("%s/%s: cold: %v", name, algo, err)
			}
			reused, err := match.New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			first, err := reused.Solve(ctx, stream.NewEdgeStream(g))
			if err != nil {
				t.Fatalf("%s/%s: first: %v", name, algo, err)
			}
			firstIdx := append([]int(nil), first.Matching.EdgeIdx...)
			second, err := reused.Solve(ctx, stream.NewEdgeStream(g))
			if err != nil {
				t.Fatalf("%s/%s: second: %v", name, algo, err)
			}
			assertSameResult(t, name+"/"+algo+"/first", cold, first)
			assertSameResult(t, name+"/"+algo+"/second", cold, second)
			if !reflect.DeepEqual(first.Matching.EdgeIdx, firstIdx) {
				t.Errorf("%s/%s: second solve mutated the first result", name, algo)
			}
		}
	}
}

// TestSolverReuseSavesAllocation checks what the cached session buys:
// on one instance at one worker, a repeat Solve on one Solver allocates
// at most 0.8× the heap bytes of a construct-per-call solve (about 0.6×
// when the session keeps its scratch; a Solver that rebuilt its session
// per call would sit near 1×).
func TestSolverReuseSavesAllocation(t *testing.T) {
	ctx := context.Background()
	g := graph.GNM(48, 320, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 17)
	opts := []match.Option{match.WithSeed(7), match.WithWorkers(1)}
	const solves = 3
	bytesPerSolve := func(solve func() *match.Solver) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < solves; i++ {
			if _, err := solve().Solve(ctx, stream.NewEdgeStream(g)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / solves
	}
	fresh := func() *match.Solver {
		s, err := match.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	reused := fresh()
	if _, err := reused.Solve(ctx, stream.NewEdgeStream(g)); err != nil {
		t.Fatal(err)
	}
	warm := bytesPerSolve(func() *match.Solver { return reused })
	cold := bytesPerSolve(fresh)
	t.Logf("bytes per solve: reused %.0f, construct-per-call %.0f (ratio %.2f)", warm, cold, warm/cold)
	if warm > 0.8*cold {
		t.Fatalf("repeat solve on one Solver allocated %.0f B, construct-per-call %.0f B: ratio %.2f, want <= 0.8",
			warm, cold, warm/cold)
	}
}

// cancelAtPass cancels its context as metered pass `at` (1-based)
// starts, so the engine ends that pass at its first block.
type cancelAtPass struct {
	stream.Source
	at, passes int
	cancel     context.CancelFunc
}

func (c *cancelAtPass) ForEach(f func(idx int, e graph.Edge) bool) {
	c.passes++
	if c.passes == c.at {
		c.cancel()
	}
	c.Source.ForEach(f)
}

// TestSolverReuseCancelledMatchesCold pins the abort path of a reused
// session: a Solver that already finished one solve, cancelled during
// its W* scan (pass 1) or its level census (pass 2), must report
// exactly what a cold Solver cancelled at the same pass reports — no
// panic on the discretization the abort never built, and no dual
// objective left over from the previous run.
func TestSolverReuseCancelledMatchesCold(t *testing.T) {
	g := graph.GNM(48, 320, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 41)
	opts := []match.Option{match.WithSeed(7), match.WithWorkers(1)}
	cancelled := func(s *match.Solver, at int) *match.Result {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		res, err := s.Solve(ctx, &cancelAtPass{Source: stream.NewEdgeStream(g), at: at, cancel: cancel})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pass %d: err = %v, want context.Canceled", at, err)
		}
		return res
	}
	for _, at := range []int{1, 2} {
		cold, err := match.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := cancelled(cold, at)
		reused, err := match.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reused.Solve(context.Background(), stream.NewEdgeStream(g)); err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("cancelled at pass %d", at), want, cancelled(reused, at))
	}
}

// cancelAfterEdge cancels its context once metered pass `at` (1-based)
// has handed edge `after` on, so the engine ends that pass at the next
// block boundary with the blocks before it consumed.
type cancelAfterEdge struct {
	stream.Source
	at, after, passes int
	cancel            context.CancelFunc
}

func (c *cancelAfterEdge) ForEach(f func(idx int, e graph.Edge) bool) {
	c.passes++
	if c.passes != c.at {
		c.Source.ForEach(f)
		return
	}
	c.Source.ForEach(func(idx int, e graph.Edge) bool {
		ok := f(idx, e)
		if idx == c.after {
			c.cancel()
		}
		return ok
	})
}

// TestSolverReuseAfterSamplingAbortMatchesCold pins the reuse of a
// session's deferred builders after an abort inside round 1's sampling
// pass (pass 4). The cancel lands once edge 2·BlockEdges is handed on,
// so the pass has staged two full blocks into the builders and ends
// with their constructions unfinished; the same Solver's next full
// solve must equal a cold Solver's. Two forests per level and χ = 1
// make the constructions sample (9 000 unit-weight edges against 2·199
// forest edges per level and class), so leftover forest state would
// change what they keep.
func TestSolverReuseAfterSamplingAbortMatchesCold(t *testing.T) {
	g := graph.GNM(200, 9000, graph.WeightConfig{}, 43)
	prof := match.Practical(0.3)
	prof.SparsifierK = 2
	prof.ChiOverride = 1
	opts := []match.Option{match.WithEps(0.3), match.WithProfile(prof), match.WithSeed(7), match.WithWorkers(1)}
	newSolver := func() *match.Solver {
		t.Helper()
		s, err := match.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want, err := newSolver().Solve(context.Background(), stream.NewEdgeStream(g))
	if err != nil {
		t.Fatal(err)
	}
	reused := newSolver()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	aborted, err := reused.Solve(ctx, &cancelAfterEdge{Source: stream.NewEdgeStream(g), at: 4, after: 2 * stream.BlockEdges, cancel: cancel})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if aborted.Stats.Passes != 4 {
		t.Fatalf("aborted after %d passes, want 4 (inside round 1's sampling pass)", aborted.Stats.Passes)
	}
	got, err := reused.Solve(context.Background(), stream.NewEdgeStream(g))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "solve after a sampling-pass abort", want, got)
}

// drifted returns g with a fraction of edge weights nudged — the
// "slowly drifting instance" regime warm starts target. The maximum
// weight and capacities are preserved (the max-weight edges are never
// nudged) so the discretization — and with it warm-start validity — is
// unchanged.
func drifted(g *graph.Graph, seed uint64) *graph.Graph {
	wstar := g.MaxWeight()
	out := graph.New(g.N())
	for i, e := range g.Edges() {
		w := e.W
		if i%7 == int(seed%7) && w > 1 && w < wstar {
			w *= 0.95
		}
		out.MustAddEdge(int(e.U), int(e.V), w)
	}
	return out
}

func TestWarmStartReducesWork(t *testing.T) {
	ctx := context.Background()
	g := graph.GNM(48, 320, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 41)
	// ε = 0.3 puts the certificate target within reach, so the warm
	// trajectory's head start converts into fewer rounds immediately.
	solver, err := match.New(match.WithSeed(13), match.WithWorkers(1), match.WithEps(0.3))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := solver.Solve(ctx, stream.NewEdgeStream(g))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.WarmStarted {
		t.Error("cold solve reports WarmStarted")
	}
	coldWork := cold.Stats.Passes

	// Repeat solves seeded from the previous solution: same instance
	// and then a drifted one. The warm path must install (WarmStarted),
	// skip the initial solution (InitRounds == 0), spend fewer passes
	// than cold, and keep the certificate sound.
	prev := cold
	for i, src := range []match.Source{
		stream.NewEdgeStream(g),
		stream.NewEdgeStream(drifted(g, 3)),
	} {
		warm, err := solver.Solve(ctx, src, match.WithInitialDuals(prev))
		if err != nil {
			t.Fatalf("warm solve %d: %v", i, err)
		}
		if !warm.Stats.WarmStarted {
			t.Fatalf("warm solve %d: snapshot not installed", i)
		}
		if warm.Stats.InitRounds != 0 {
			t.Errorf("warm solve %d: InitRounds = %d, want 0", i, warm.Stats.InitRounds)
		}
		// The repeat on the unchanged instance must convert the head
		// start into strictly fewer passes; a drifted instance may
		// legitimately need the full trajectory again, but never more
		// than cold.
		if i == 0 && warm.Stats.Passes >= coldWork {
			t.Errorf("warm repeat: %d passes, cold needed %d — no win", warm.Stats.Passes, coldWork)
		}
		if warm.Stats.Passes > coldWork {
			t.Errorf("warm solve %d: %d passes exceeds cold's %d", i, warm.Stats.Passes, coldWork)
		}
		if err := warm.Validate(src); err != nil {
			t.Errorf("warm solve %d: invalid matching: %v", i, err)
		}
		if warm.Lambda > 0 {
			if ub := warm.CertifiedUpperBound(); ub < warm.Weight*(1-1e-9) {
				t.Errorf("warm solve %d: certified bound %v below achieved weight %v", i, ub, warm.Weight)
			}
		}
		prev = warm
	}
}

// TestWarmStartInvalidFallsBackCold pins the certified fallback: a
// snapshot from a different discretization (different n / W* / B) must
// be rejected, and the run must be bit-identical to a never-warmed one.
func TestWarmStartInvalidFallsBackCold(t *testing.T) {
	ctx := context.Background()
	small := graph.GNM(30, 150, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 12}, 5)
	big := graph.GNM(64, 400, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 20}, 6)
	solver, err := match.New(match.WithSeed(3), match.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := solver.Solve(ctx, stream.NewEdgeStream(small))
	if err != nil {
		t.Fatal(err)
	}
	coldSolver, err := match.New(match.WithSeed(3), match.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldSolver.Solve(ctx, stream.NewEdgeStream(big))
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := solver.Solve(ctx, stream.NewEdgeStream(big), match.WithInitialDuals(prev))
	if err != nil {
		t.Fatal(err)
	}
	if fallback.Stats.WarmStarted {
		t.Fatal("mismatched snapshot was installed")
	}
	assertSameResult(t, "fallback", cold, fallback)

	// Nil previous result and results from dual-free algorithms are
	// quietly cold too.
	nilWarm, err := coldSolver.Solve(ctx, stream.NewEdgeStream(big), match.WithInitialDuals(nil))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "nil-prev", cold, nilWarm)
	greedyRes, err := match.Solve(ctx, stream.NewEdgeStream(big), match.WithAlgorithm("greedy"), match.WithSeed(3), match.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	fromGreedy, err := coldSolver.Solve(ctx, stream.NewEdgeStream(big), match.WithInitialDuals(greedyRes))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "dual-free-prev", cold, fromGreedy)
}
