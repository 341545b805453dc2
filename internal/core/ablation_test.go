package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
)

// Ablation-path tests: each switch must keep the solver correct (valid
// matchings, sane stats) while changing the dual's behaviour in the
// predicted direction.

func ablSolve(t *testing.T, g *graph.Graph, mod func(*Profile), rounds int) *result {
	t.Helper()
	prof := Practical(0.125)
	if mod != nil {
		mod(&prof)
	}
	res, err := solveGraph(g, Options{Eps: 0.125, P: 2, Seed: 3, Profile: &prof, MaxRounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Matching.Validate(g); err != nil {
		t.Fatalf("invalid matching under ablation: %v", err)
	}
	return res
}

func TestAblationNoOddSetsStillMatches(t *testing.T) {
	g := graph.TriangleChain(10)
	full := ablSolve(t, g, nil, 60)
	no := ablSolve(t, g, func(p *Profile) { p.DisableOddSets = true }, 60)
	_, opt := matching.MaxWeightMatchingFloat(g, false)
	if full.Weight < opt*(1-0.2) || no.Weight < opt*(1-0.2) {
		t.Fatalf("primal degraded: full %f, no-oddsets %f, opt %f", full.Weight, no.Weight, opt)
	}
}

func TestAblationNoOddSetsFiresWitnesses(t *testing.T) {
	// With odd-set pricing disabled, once vertex violations stop paying
	// the MicroOracle must fall through to part (i) — on odd-dominated
	// graphs this shows up as witness events.
	g := graph.TriangleChain(10)
	no := ablSolve(t, g, func(p *Profile) { p.DisableOddSets = true }, 400)
	full := ablSolve(t, g, nil, 400)
	if no.Stats.WitnessEvents <= full.Stats.WitnessEvents {
		t.Fatalf("witness events: no-oddsets %d <= full %d", no.Stats.WitnessEvents, full.Stats.WitnessEvents)
	}
}

func TestAblationStaleRefinementRuns(t *testing.T) {
	g := graph.GNM(36, 250, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 20}, 7)
	res := ablSolve(t, g, func(p *Profile) { p.StaleRefinement = true }, 40)
	_, opt := matching.MaxWeightMatchingFloat(g, false)
	if res.Weight < opt*(1-0.2) {
		t.Fatalf("stale refinement primal ratio %f", res.Weight/opt)
	}
}

func TestAblationChiOverrideRuns(t *testing.T) {
	g := graph.GNM(36, 250, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 20}, 11)
	res := ablSolve(t, g, func(p *Profile) { p.ChiOverride = 1 }, 40)
	_, opt := matching.MaxWeightMatchingFloat(g, false)
	if res.Weight < opt*(1-0.2) {
		t.Fatalf("chi=1 primal ratio %f", res.Weight/opt)
	}
}

func TestDualCertificateConverges(t *testing.T) {
	// With an extended round budget the dual certificate must reach
	// λ >= 1-3ε and certify the optimum within the slack on a pure
	// odd-structure instance.
	g := graph.TriangleChain(13)
	res := ablSolve(t, g, nil, 700)
	if !res.Stats.EarlyStopped {
		t.Fatalf("no early stop: lambda %f", res.Lambda)
	}
	_, opt := matching.MaxWeightMatchingFloat(g, false)
	bound := res.DualObjective / res.Lambda * (1 + 0.125) // discretization slack
	if bound < opt*(1-0.15) {
		t.Fatalf("certificate %f below optimum %f", bound, opt)
	}
	if bound > opt*2 {
		t.Fatalf("certificate %f uselessly loose vs %f", bound, opt)
	}
}
