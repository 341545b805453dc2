package engine_test

// The engine conformance suite: every algorithm in the algos table — the
// dual-primal solver and all ported substrates — must honor the shared
// resource contract. For each algorithm of the table it checks that
//
//   - an unbudgeted run completes with nonzero pass and peak-words
//     meters and a feasible matching whose weight matches the reported
//     one;
//   - observer events arrive once per round, in strictly increasing
//     round order, with nondecreasing pass and peak-words meters;
//   - an ample budget is a strict no-op (bit-identical outcome);
//   - on every axis the algorithm can actually exhaust, a budget one
//     notch under the unbudgeted usage trips with
//     errors.Is(err, ErrBudgetExceeded), names that axis, and still
//     hands back a feasible best-so-far matching;
//   - cancelling the context mid-pass aborts within a bounded number of
//     edge deliveries and surrenders the certificate (Lambda = 0).

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/algos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/stream"
)

// conformanceParams is the shared configuration every algorithm is
// driven with.
var conformanceParams = core.Options{Eps: 0.25, P: 2, Seed: 7, Workers: 1}

// conformanceGraph is an instance every algorithm of the table supports:
// bipartite (for hopcroft-karp), unit capacities, weighted, dense enough
// that augmentation and multiple rounds actually happen.
func conformanceGraph() *graph.Graph {
	return graph.Bipartite(20, 20, 150, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 10}, 5)
}

// newSession builds a fresh instance of the named algorithm.
func newSession(t *testing.T, name string) engine.Algorithm {
	t.Helper()
	alg, err := algos.New(name, conformanceParams)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return alg
}

// drive runs one cold solve: a fresh instance through engine.Solve.
func drive(t *testing.T, name string, ctx context.Context, src stream.Source, ext engine.Extensions) (*engine.Outcome, error) {
	t.Helper()
	return engine.Solve(ctx, newSession(t, name), src, ext)
}

func TestConformanceEveryRegisteredAlgorithm(t *testing.T) {
	infos := algos.List()
	if len(infos) < 5 {
		t.Fatalf("table has %d algorithms, want >= 5: %v", len(infos), infos)
	}
	g := conformanceGraph()
	cg := cancellationGraph(t)
	for _, info := range infos {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			// Unbudgeted baseline, with observer capture.
			var events []engine.RoundEvent
			base, err := drive(t, info.Name, context.Background(), stream.NewEdgeStream(g),
				engine.Extensions{Observer: func(ev engine.RoundEvent) { events = append(events, ev) }})
			if err != nil {
				t.Fatalf("unbudgeted run failed: %v", err)
			}
			assertOutcome(t, g, base)
			assertEvents(t, base, events)
			t.Run("ample-budget-noop", func(t *testing.T) {
				ample := engine.Budget{Passes: base.Stats.Passes*10 + 10,
					Rounds: base.Stats.SamplingRounds*10 + 10, SpaceWords: base.Stats.PeakWords*10 + 10}
				out, err := drive(t, info.Name, context.Background(), stream.NewEdgeStream(g),
					engine.Extensions{Budget: ample})
				if err != nil {
					t.Fatalf("ample budget tripped: %v", err)
				}
				assertSameOutcome(t, base, out)
			})
			t.Run("budget-trips", func(t *testing.T) {
				testBudgetTrips(t, g, info.Name, base)
			})
			t.Run("cancellation-mid-pass", func(t *testing.T) {
				testCancellation(t, cg, info.Name)
			})
			t.Run("session-reuse", func(t *testing.T) {
				testSessionReuse(t, g, info.Name, base)
			})
			t.Run("budget-on-warm-session", func(t *testing.T) {
				testWarmSessionBudget(t, g, info.Name, base)
			})
		})
	}
}

// assertOutcome checks the generic outcome contract: nonzero meters and
// a feasible matching whose recomputed weight agrees with the report.
func assertOutcome(t *testing.T, g *graph.Graph, out *engine.Outcome) {
	t.Helper()
	if out.Stats.Passes <= 0 {
		t.Errorf("Passes = %d, want > 0 (data access must be metered)", out.Stats.Passes)
	}
	if out.Stats.PeakWords <= 0 {
		t.Errorf("PeakWords = %d, want > 0 (central state must be metered)", out.Stats.PeakWords)
	}
	if out.Stats.SamplingRounds <= 0 {
		t.Errorf("Rounds = %d, want > 0", out.Stats.SamplingRounds)
	}
	if out.Matching == nil {
		t.Fatal("Matching is nil")
	}
	if err := out.Matching.Validate(g); err != nil {
		t.Fatalf("matching infeasible: %v", err)
	}
	if w := out.Matching.Weight(g); math.Abs(w-out.Weight) > 1e-9*(1+math.Abs(w)) {
		t.Errorf("reported Weight %v != recomputed %v", out.Weight, w)
	}
}

// assertEvents checks the observer stream: one event per round, strictly
// increasing 1-based rounds, monotone resource meters.
func assertEvents(t *testing.T, out *engine.Outcome, events []engine.RoundEvent) {
	t.Helper()
	if len(events) != out.Stats.SamplingRounds {
		t.Fatalf("observer saw %d events, run had %d rounds", len(events), out.Stats.SamplingRounds)
	}
	for i, ev := range events {
		if ev.Round != i+1 {
			t.Errorf("event %d has Round %d, want %d", i, ev.Round, i+1)
		}
		if i > 0 {
			if ev.Passes < events[i-1].Passes {
				t.Errorf("Passes not monotone: event %d has %d after %d", i, ev.Passes, events[i-1].Passes)
			}
			if ev.PeakWords < events[i-1].PeakWords {
				t.Errorf("PeakWords not monotone: event %d has %d after %d", i, ev.PeakWords, events[i-1].PeakWords)
			}
		}
	}
	last := events[len(events)-1]
	if last.Passes > out.Stats.Passes || last.PeakWords > out.Stats.PeakWords {
		t.Errorf("final event meters (%d passes, %d words) exceed outcome (%d, %d)",
			last.Passes, last.PeakWords, out.Stats.Passes, out.Stats.PeakWords)
	}
}

// assertSameOutcome checks bit-identity of two outcomes (the ample-
// budget no-op contract).
func assertSameOutcome(t *testing.T, want, got *engine.Outcome) {
	t.Helper()
	if math.Float64bits(want.Weight) != math.Float64bits(got.Weight) {
		t.Errorf("Weight %v != %v", got.Weight, want.Weight)
	}
	if want.Stats.SamplingRounds != got.Stats.SamplingRounds || want.Stats.Passes != got.Stats.Passes || want.Stats.PeakWords != got.Stats.PeakWords {
		t.Errorf("meters (%d, %d, %d) != (%d, %d, %d)",
			got.Stats.SamplingRounds, got.Stats.Passes, got.Stats.PeakWords, want.Stats.SamplingRounds, want.Stats.Passes, want.Stats.PeakWords)
	}
	if len(want.Matching.EdgeIdx) != len(got.Matching.EdgeIdx) {
		t.Fatalf("matching sizes differ: %d != %d", len(got.Matching.EdgeIdx), len(want.Matching.EdgeIdx))
	}
	for i := range want.Matching.EdgeIdx {
		if want.Matching.EdgeIdx[i] != got.Matching.EdgeIdx[i] {
			t.Fatalf("matching edge %d differs: %d != %d", i, got.Matching.EdgeIdx[i], want.Matching.EdgeIdx[i])
		}
	}
}

// testBudgetTrips constrains each axis one notch below the unbudgeted
// usage and demands a trip with best-so-far semantics. Axes whose
// unbudgeted usage cannot exceed any positive limit (a one-pass
// algorithm under a pass budget) are structurally untrippable and are
// skipped.
func testBudgetTrips(t *testing.T, g *graph.Graph, name string, base *engine.Outcome) {
	cases := []struct {
		axis   engine.BudgetAxis
		usage  int
		budget engine.Budget
	}{
		{engine.AxisPasses, base.Stats.Passes, engine.Budget{Passes: base.Stats.Passes - 1}},
		{engine.AxisRounds, base.Stats.SamplingRounds, engine.Budget{Rounds: base.Stats.SamplingRounds - 1}},
		{engine.AxisSpaceWords, base.Stats.PeakWords, engine.Budget{SpaceWords: base.Stats.PeakWords - 1}},
	}
	tripped := 0
	for _, tc := range cases {
		if tc.usage <= 1 {
			continue // no positive limit can be exceeded
		}
		out, err := drive(t, name, context.Background(), stream.NewEdgeStream(g),
			engine.Extensions{Budget: tc.budget})
		if !errors.Is(err, engine.ErrBudgetExceeded) {
			t.Errorf("axis %s: err = %v, want ErrBudgetExceeded", tc.axis, err)
			continue
		}
		var be *engine.BudgetError
		if !errors.As(err, &be) {
			t.Errorf("axis %s: error is not a *BudgetError: %v", tc.axis, err)
			continue
		}
		if be.Axis != tc.axis {
			t.Errorf("tripped axis %s, want %s", be.Axis, tc.axis)
		}
		if be.Used <= be.Limit {
			t.Errorf("axis %s: Used %d <= Limit %d", tc.axis, be.Used, be.Limit)
		}
		if out == nil {
			t.Fatalf("axis %s: tripped run returned nil outcome", tc.axis)
		}
		if out.Matching == nil {
			t.Fatalf("axis %s: tripped run has nil matching", tc.axis)
		}
		if err := out.Matching.Validate(g); err != nil {
			t.Errorf("axis %s: best-so-far matching infeasible: %v", tc.axis, err)
		}
		tripped++
	}
	if tripped == 0 {
		t.Error("no axis was trippable — conformance cannot exercise budget semantics")
	}
}

// testSessionReuse is the reuse clause of the conformance suite:
// solve → Reset → solve on one instance must be bit-identical to
// two cold solves — including every resource meter, so retained scratch
// can never surface as live words in the second solve's PeakWords — and
// the second solve must not mutate the first solve's returned Outcome.
// A third solve on a different-shape instance checks that reuse does
// not pin an instance to one graph shape.
func testSessionReuse(t *testing.T, g *graph.Graph, name string, cold *engine.Outcome) {
	sess := newSession(t, name)
	first, err := engine.Solve(context.Background(), sess, stream.NewEdgeStream(g), engine.Extensions{})
	if err != nil {
		t.Fatalf("first session solve: %v", err)
	}
	assertSameOutcome(t, cold, first)
	// Snapshot the first outcome's matching, then solve again: the
	// second run must equal a cold run AND must not clobber the
	// snapshot (retained scratch must not alias returned results).
	firstIdx := append([]int(nil), first.Matching.EdgeIdx...)
	firstMult := append([]int(nil), first.Matching.Mult...)
	second, err := engine.Solve(context.Background(), sess, stream.NewEdgeStream(g), engine.Extensions{})
	if err != nil {
		t.Fatalf("second session solve: %v", err)
	}
	assertSameOutcome(t, cold, second)
	if !equalInts(first.Matching.EdgeIdx, firstIdx) || !equalInts(first.Matching.Mult, firstMult) {
		t.Error("second solve mutated the first solve's returned matching")
	}
	// Different shape through the same instance.
	g2 := graph.Bipartite(12, 12, 60, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 8}, 9)
	cold2, err := drive(t, name, context.Background(), stream.NewEdgeStream(g2), engine.Extensions{})
	if err != nil {
		t.Fatalf("cold solve on second shape: %v", err)
	}
	third, err := engine.Solve(context.Background(), sess, stream.NewEdgeStream(g2), engine.Extensions{})
	if err != nil {
		t.Fatalf("session solve on second shape: %v", err)
	}
	assertSameOutcome(t, cold2, third)
}

// testWarmSessionBudget is the retained-scratch clause: a space budget
// one notch under the cold peak must trip on a session's SECOND solve —
// the one whose working memory comes from retained pools rather than
// the allocator — with the same typed abort a cold run produces. This
// is what keeps retention honest: pooled buffers are retained
// *capacity*, but the words an algorithm semantically holds are metered
// by the SpaceAccountant regardless of where the bytes came from, so
// warming the pools can never smuggle a run under a space budget.
func testWarmSessionBudget(t *testing.T, g *graph.Graph, name string, base *engine.Outcome) {
	if base.Stats.PeakWords <= 1 {
		t.Skip("peak too small for a positive sub-peak budget")
	}
	sess := newSession(t, name)
	// First solve, unbudgeted: warms every pool the algorithm retains.
	if _, err := engine.Solve(context.Background(), sess, stream.NewEdgeStream(g), engine.Extensions{}); err != nil {
		t.Fatalf("warming solve failed: %v", err)
	}
	// Second solve under a just-too-small space budget: pooled memory
	// must still be counted, so the trip must fire exactly as cold.
	out, err := engine.Solve(context.Background(), sess, stream.NewEdgeStream(g),
		engine.Extensions{Budget: engine.Budget{SpaceWords: base.Stats.PeakWords - 1}})
	if !errors.Is(err, engine.ErrBudgetExceeded) {
		t.Fatalf("warm run under sub-peak space budget: err = %v, want ErrBudgetExceeded", err)
	}
	var be *engine.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error is not a *BudgetError: %v", err)
	}
	if be.Axis != engine.AxisSpaceWords {
		t.Errorf("tripped axis %s, want %s", be.Axis, engine.AxisSpaceWords)
	}
	if be.Used <= be.Limit {
		t.Errorf("Used %d <= Limit %d", be.Used, be.Limit)
	}
	if out == nil || out.Matching == nil {
		t.Fatal("tripped warm run did not return a best-so-far outcome")
	}
	if err := out.Matching.Validate(g); err != nil {
		t.Errorf("best-so-far matching infeasible: %v", err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cancelAfterSource delegates to an inner source but cancels the given
// context after `after` edge deliveries on metered sequential passes,
// then keeps counting: only the engine's own guard may end the pass.
type cancelAfterSource struct {
	stream.Source
	cancel context.CancelFunc
	after  int

	mu   sync.Mutex
	seen int
}

func (c *cancelAfterSource) ForEach(f func(idx int, e graph.Edge) bool) {
	c.Source.ForEach(func(idx int, e graph.Edge) bool {
		c.mu.Lock()
		c.seen++
		if c.seen == c.after {
			c.cancel()
		}
		c.mu.Unlock()
		return f(idx, e)
	})
}

func (c *cancelAfterSource) delivered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen
}

// cancellationGraph spans three full blocks and part of a fourth, so a
// sweep that stops at the next block boundary delivers far fewer edges
// than one that runs its pass out. It is bipartite with unit
// capacities, which every algorithm of the table serves.
func cancellationGraph(t *testing.T) *graph.Graph {
	m := 3*stream.BlockEdges + 17
	g := graph.Bipartite(150, 150, m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 10}, 5)
	if g.M() != m {
		t.Fatalf("cancellation instance has %d edges, want %d", g.M(), m)
	}
	return g
}

// testCancellation cancels the context partway through the first pass
// and demands a prompt abort: ctx.Err() surfaces, no certificate
// survives, and the guarded sweep stops at the next block boundary.
func testCancellation(t *testing.T, g *graph.Graph, name string) {
	const after = 40
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelAfterSource{Source: stream.NewEdgeStream(g), cancel: cancel, after: after}
	out, err := drive(t, name, ctx, src, engine.Extensions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out == nil {
		t.Fatal("cancelled run returned nil outcome")
	}
	if out.Lambda != 0 {
		t.Errorf("cancelled run kept a certificate: Lambda = %v", out.Lambda)
	}
	if err := out.Matching.Validate(g); err != nil {
		t.Errorf("cancelled run's matching infeasible: %v", err)
	}
	// The cancel fires at delivery `after`, inside the first block. The
	// guard checks ctx once per block, so the aborting pass delivers at
	// most the rest of that block, and the checkpoint after the pass ends
	// the run; a pass that ran out would deliver all of g's edges.
	if d := src.delivered(); d > after+stream.BlockEdges {
		t.Errorf("cancellation was not honored within a pass: %d edges delivered (cancelled at %d)", d, after)
	}
}
