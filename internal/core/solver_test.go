package core

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/stream"
)

// result is what a core test reads off one solve: the engine Outcome
// plus the per-round λ/β trajectory its observer streamed.
type result struct {
	*engine.Outcome
	lambdas, betas []float64
}

// solve drives a fresh dual-primal instance over src through
// engine.Solve, the path the match facade takes.
func solve(src stream.Source, opt Options) (*result, error) {
	alg, err := New(opt)
	if err != nil {
		return nil, err
	}
	res := &result{}
	res.Outcome, err = engine.Solve(context.Background(), alg, src,
		engine.Extensions{Observer: func(ev engine.RoundEvent) {
			res.lambdas = append(res.lambdas, ev.Lambda)
			res.betas = append(res.betas, ev.Beta)
		}})
	return res, err
}

// solveGraph solves an in-memory graph.
func solveGraph(g *graph.Graph, opt Options) (*result, error) {
	return solve(stream.NewEdgeStream(g), opt)
}

func solveRatio(t *testing.T, g *graph.Graph, eps float64, seed uint64) (float64, *result) {
	t.Helper()
	res, err := solveGraph(g, Options{Eps: eps, P: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Matching.Validate(g); err != nil {
		t.Fatalf("invalid matching: %v", err)
	}
	_, opt := matching.MaxWeightMatchingFloat(g, false)
	if opt == 0 {
		return 1, res
	}
	return res.Weight / opt, res
}

func TestSolveEmptyGraph(t *testing.T) {
	g := graph.New(5)
	res, err := solveGraph(g, Options{Eps: 0.25, P: 2})
	if err != nil || res.Weight != 0 {
		t.Fatalf("empty graph: %v %v", res, err)
	}
}

func TestSolveValidatesOptions(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	if _, err := solveGraph(g, Options{Eps: 0, P: 2}); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := solveGraph(g, Options{Eps: 0.25, P: 1}); err == nil {
		t.Fatal("p=1 accepted")
	}
}

func TestSolveSingleEdge(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 7)
	ratio, _ := solveRatio(t, g, 0.25, 1)
	if ratio < 1-1e-9 {
		t.Fatalf("single edge ratio %f", ratio)
	}
}

func TestSolveSmallUnweighted(t *testing.T) {
	g := graph.GNM(40, 200, graph.WeightConfig{Mode: graph.UnitWeights}, 11)
	ratio, res := solveRatio(t, g, 0.25, 2)
	if ratio < 1-0.25-0.05 {
		t.Fatalf("ratio %f below 1-eps slack (stats %+v)", ratio, res.Stats)
	}
}

func TestSolveWeightedNonbipartite(t *testing.T) {
	g := graph.GNM(48, 300, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 50}, 13)
	ratio, res := solveRatio(t, g, 0.25, 3)
	if ratio < 1-0.25-0.05 {
		t.Fatalf("weighted ratio %f (stats %+v)", ratio, res.Stats)
	}
}

func TestSolvePowersWeights(t *testing.T) {
	g := graph.GNM(40, 250, graph.WeightConfig{Mode: graph.PowersOf, Eps: 0.25, Levels: 8}, 17)
	ratio, _ := solveRatio(t, g, 0.25, 5)
	if ratio < 1-0.25-0.05 {
		t.Fatalf("powers ratio %f", ratio)
	}
}

func TestSolveTriangleChain(t *testing.T) {
	// Odd structure everywhere: the bipartite relaxation is off by 3/2,
	// so matching quality requires the odd-set machinery end to end.
	g := graph.TriangleChain(8)
	ratio, _ := solveRatio(t, g, 0.25, 7)
	if ratio < 1-0.25-0.05 {
		t.Fatalf("triangle chain ratio %f", ratio)
	}
}

func TestSolveBMatching(t *testing.T) {
	g := graph.GNM(30, 150, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 9}, 19)
	graph.WithRandomB(g, 3, false, 23)
	res, err := solveGraph(g, Options{Eps: 0.25, P: 2, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Matching.Validate(g); err != nil {
		t.Fatalf("invalid b-matching: %v", err)
	}
	_, opt := matching.OfflineB(g, matching.OfflineConfig{})
	if opt > 0 && res.Weight/opt < 1-0.25-0.10 {
		t.Fatalf("b-matching ratio %f", res.Weight/opt)
	}
}

func TestSolveImprovesWithSmallerEps(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := graph.GNM(40, 300, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 20}, 31)
	rCoarse, _ := solveRatio(t, g, 0.4, 37)
	rFine, _ := solveRatio(t, g, 0.125, 37)
	if rFine < rCoarse-0.05 {
		t.Fatalf("smaller eps did not help: coarse %f fine %f", rCoarse, rFine)
	}
	if rFine < 1-0.125-0.08 {
		t.Fatalf("fine ratio %f below target", rFine)
	}
}

func TestSolveStatsAccounting(t *testing.T) {
	g := graph.GNM(50, 400, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, 41)
	res, err := solveGraph(g, Options{Eps: 0.25, P: 2, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.SamplingRounds < 1 {
		t.Fatal("no sampling rounds recorded")
	}
	if st.OracleUses < st.SamplingRounds {
		t.Fatalf("uses %d < rounds %d: deferred batches missing", st.OracleUses, st.SamplingRounds)
	}
	if st.MicroCalls < st.OracleUses {
		t.Fatalf("micro calls %d < uses %d", st.MicroCalls, st.OracleUses)
	}
	if st.Passes < st.SamplingRounds {
		t.Fatalf("passes %d < rounds %d", st.Passes, st.SamplingRounds)
	}
	if st.PeakSampleEdges <= 0 || st.PeakSampleEdges > g.M()*len(st.UnionSizes)*8 {
		t.Fatalf("peak sample edges implausible: %d", st.PeakSampleEdges)
	}
	if len(res.lambdas) != st.SamplingRounds {
		t.Fatalf("lambda trace %d vs rounds %d", len(res.lambdas), st.SamplingRounds)
	}
}

func TestSolveDualBoundsPrimal(t *testing.T) {
	// Weak duality: the dual objective (over kept edges) divided by λ
	// must upper-bound the kept-edge optimum when λ > 0. We check
	// against the overall optimum with discretization slack.
	g := graph.GNM(40, 250, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 47)
	res, err := solveGraph(g, Options{Eps: 0.25, P: 2, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lambda <= 0 {
		t.Fatalf("lambda %f", res.Lambda)
	}
	_, opt := matching.MaxWeightMatchingFloat(g, false)
	bound := res.DualObjective / res.Lambda * (1 + 0.25) // discretization slack
	if bound < opt*(1-0.3) {
		t.Fatalf("dual bound %f too far below optimum %f", bound, opt)
	}
}

func TestSolveRoundsScaleWithP(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := graph.GNM(60, 800, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 12}, 59)
	res2, err := solveGraph(g, Options{Eps: 0.25, P: 2, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	res4, err := solveGraph(g, Options{Eps: 0.25, P: 4, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	// Larger p means less space per round; rounds should not shrink.
	if res4.Stats.SamplingRounds+res4.Stats.InitRounds < res2.Stats.SamplingRounds+res2.Stats.InitRounds {
		t.Logf("p=2 rounds %d+%d, p=4 rounds %d+%d (informational)",
			res2.Stats.InitRounds, res2.Stats.SamplingRounds,
			res4.Stats.InitRounds, res4.Stats.SamplingRounds)
	}
	if res2.Weight <= 0 || res4.Weight <= 0 {
		t.Fatal("empty matchings")
	}
}

func TestSolveDeterministicForSeed(t *testing.T) {
	g := graph.GNM(40, 220, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 9}, 67)
	a, err := solveGraph(g, Options{Eps: 0.25, P: 2, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	b, err := solveGraph(g, Options{Eps: 0.25, P: 2, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Weight-b.Weight) > 1e-12 || a.Stats.SamplingRounds != b.Stats.SamplingRounds {
		t.Fatalf("nondeterministic: %f/%d vs %f/%d", a.Weight, a.Stats.SamplingRounds, b.Weight, b.Stats.SamplingRounds)
	}
}

func TestSolveFaithfulProfileSmall(t *testing.T) {
	// The faithful profile must at least run end to end on a tiny
	// instance (its iteration budgets are huge, so keep it very small and
	// cap rounds).
	g := graph.GNM(12, 30, graph.WeightConfig{Mode: graph.UnitWeights}, 73)
	prof := Faithful(0.25)
	prof.InnerIterCap = 50 // keep the smoke test fast
	res, err := solveGraph(g, Options{Eps: 0.25, P: 2, Seed: 79, Profile: &prof, MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Matching.Validate(g); err != nil {
		t.Fatal(err)
	}
	if res.Weight <= 0 {
		t.Fatal("faithful profile produced empty matching")
	}
}

func TestSolvePlantedLargeGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Larger instance with a planted optimum: exact solver is skipped and
	// the planted weight gives the reference.
	g, planted := graph.PlantedMatching(200, 2000, 100, 3, 83)
	res, err := solveGraph(g, Options{Eps: 0.25, P: 2, Seed: 89})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Matching.Validate(g); err != nil {
		t.Fatal(err)
	}
	if res.Weight < planted*(1-0.25-0.05) {
		t.Fatalf("planted ratio %f", res.Weight/planted)
	}
}

func TestSolveLargerEps8Performance(t *testing.T) {
	// Regression guard for the lazy-forest optimization: an eps=1/8 run
	// at n=128 must finish quickly (it took ~110s before the fix, ~2s
	// after). The generous bound still catches order-of-magnitude
	// regressions.
	if testing.Short() {
		t.Skip("short mode")
	}
	g := graph.GNM(128, 1024, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 50}, 128)
	start := time.Now()
	res, err := solveGraph(g, Options{Eps: 0.125, P: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Matching.Validate(g); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("eps=1/8 solve took %v (lazy-forest regression?)", elapsed)
	}
}
