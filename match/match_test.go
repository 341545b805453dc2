package match_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

func TestNewValidatesOptions(t *testing.T) {
	cases := []struct {
		name string
		opts []match.Option
	}{
		{"eps-zero", []match.Option{match.WithEps(0)}},
		{"eps-half", []match.Option{match.WithEps(0.5)}},
		{"p-one", []match.Option{match.WithSpaceExponent(1)}},
		{"workers-negative", []match.Option{match.WithWorkers(-1)}},
		{"max-rounds-negative", []match.Option{match.WithMaxRounds(-2)}},
		{"budget-negative", []match.Option{match.WithBudget(match.Budget{Rounds: -1})}},
		{"unknown-algorithm", []match.Option{match.WithAlgorithm("auction")}},
	}
	for _, tc := range cases {
		if _, err := match.New(tc.opts...); !errors.Is(err, match.ErrInvalidOption) {
			t.Errorf("%s: err = %v, want ErrInvalidOption", tc.name, err)
		}
	}
	const unknown = `match: invalid option: unknown algorithm "auction" (registered: clique-maximal, dual-primal, greedy, greedy-augment, hopcroft-karp)`
	if _, err := match.New(match.WithAlgorithm("auction")); err == nil || err.Error() != unknown {
		t.Errorf("unknown algorithm: err = %v, want %q", err, unknown)
	}
	if s, err := match.New(); err != nil || s.Eps() != match.DefaultEps {
		t.Fatalf("defaults: %v %v", s, err)
	}
}

func TestSolveEmptySource(t *testing.T) {
	solver, err := match.New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), stream.NewEdgeStream(graph.New(5)))
	if err != nil || res.Weight != 0 || res.Matching.Size() != 0 {
		t.Fatalf("empty source: %+v %v", res, err)
	}
}

// zeroWeightSource serves an inner stream with every weight forced to
// zero — a degenerate instance no shipped backend can produce (the
// graph constructors reject non-positive weights) but a custom public
// Source can.
type zeroWeightSource struct {
	stream.Source
}

func (z *zeroWeightSource) ForEach(f func(idx int, e graph.Edge) bool) {
	z.Source.ForEach(func(idx int, e graph.Edge) bool {
		e.W = 0
		return f(idx, e)
	})
}

func (z *zeroWeightSource) Sweep(f func(idx int, e graph.Edge) bool) {
	z.Source.Sweep(func(idx int, e graph.Edge) bool {
		e.W = 0
		return f(idx, e)
	})
}

// TestSolveDegenerateSourceNonNilResult pins the documented contract
// that a validated Solver never returns a nil Result: a degenerate
// custom source (all weights zero, so the discretization scheme cannot
// be built) yields an error plus an empty result with its meters filled.
func TestSolveDegenerateSourceNonNilResult(t *testing.T) {
	g := graph.GNM(10, 30, graph.WeightConfig{Mode: graph.UnitWeights}, 2)
	solver, err := match.New(match.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), &zeroWeightSource{Source: stream.NewEdgeStream(g)})
	if err == nil {
		t.Fatal("all-zero-weight source accepted")
	}
	if res == nil {
		t.Fatal("degenerate source returned a nil result despite validated options")
	}
	if res.Stats.Passes < 1 {
		t.Errorf("meters not filled on the degenerate path: %+v", res.Stats)
	}
}

func TestObserverSubsumesTraces(t *testing.T) {
	g := graph.GNM(48, 300, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 20}, 55)
	trace := &match.TraceObserver{}
	solver, err := match.New(match.WithSeed(3), match.WithWorkers(1), match.WithObserver(trace))
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), stream.NewEdgeStream(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Events) != res.Stats.SamplingRounds {
		t.Fatalf("%d events for %d sampling rounds", len(trace.Events), res.Stats.SamplingRounds)
	}
	for i, ev := range trace.Events {
		if ev.Round != i+1 {
			t.Fatalf("event %d has round %d: events must arrive in round order", i, ev.Round)
		}
		if ev.Passes <= 0 || ev.PeakWords < 0 {
			t.Fatalf("event %d carries empty meters: %+v", i, ev)
		}
	}
	// An observed solve reports exactly the pinned unobserved result.
	if got, want := jsonDigest(t, res), "73b661993cb053a7"; got != want {
		t.Errorf("observed solve digest %s, pinned %s", got, want)
	}
}

func TestResultJSONRoundtrip(t *testing.T) {
	g := graph.GNM(40, 260, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 15}, 9)
	graph.WithRandomB(g, 3, false, 10)
	solver, err := match.New(match.WithSeed(11), match.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(context.Background(), stream.NewEdgeStream(g))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("result not JSON-marshalable: %v", err)
	}
	var back match.Result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	// The opaque warm-duals handle is deliberately outside the JSON
	// surface; compare the serialized fields through a second marshal.
	rawBack, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(rawBack) {
		t.Errorf("JSON roundtrip drifted\nin:  %s\nout: %s", raw, rawBack)
	}
	// The baked-in ε survives the roundtrip, so the certified bound is
	// reproducible from the serialized form alone.
	if back.CertifiedUpperBound() != res.CertifiedUpperBound() {
		t.Error("certified bound not recoverable from serialized result")
	}
	if res.Lambda > 0 && res.CertifiedUpperBound() < res.Weight {
		t.Errorf("certified upper bound %v below achieved weight %v", res.CertifiedUpperBound(), res.Weight)
	}
}

func TestWithProfileAndMaxRounds(t *testing.T) {
	prof := match.Practical(0.3)
	prof.SparsifierK = 6
	prof.ChiOverride = 1
	solver, err := match.New(match.WithEps(0.3), match.WithSeed(13), match.WithWorkers(1),
		match.WithProfile(prof), match.WithMaxRounds(2))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.GNM(64, 512, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 20}, 77)
	res, err := solver.Solve(context.Background(), stream.NewEdgeStream(g))
	if err != nil {
		t.Fatal(err)
	}
	// WithMaxRounds redefines the algorithmic budget: the run stops
	// silently, without a budget error.
	if res.Stats.SamplingRounds > 2 {
		t.Fatalf("MaxRounds(2) ignored: %d rounds", res.Stats.SamplingRounds)
	}
	if res.Weight <= 0 {
		t.Fatal("no matching under profile override")
	}
}
