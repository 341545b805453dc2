// Package core implements the paper's primary contribution: the
// dual-primal algorithm for (1-ε)-approximate weighted nonbipartite
// b-matching under resource constraints (Theorems 1, 3, 4 and 15;
// Algorithms 1, 2, 4 and 5).
//
// The solver runs O(p/ε) adaptive sampling rounds. Each round samples a
// batch of deferred cut-sparsifiers from the current edge multipliers
// (Section 4), solves an offline matching on the union of sampled edges
// (Algorithm 2 step 5, raising the primal bound β), and then consumes the
// sparsifiers sequentially — refining each with the drifted multipliers
// and feeding it to the MiniOracle (inner fractional packing over the
// penalty box P_o, Theorem 4) whose answers advance the outer fractional
// covering state (Theorem 3). Lack of dual progress materializes as the
// MicroOracle's part (i): an explicit witness that the sampled subgraph
// carries a (1-ε)β matching.
package core

import "math"

// Profile collects the tunable constants of the algorithm. Faithful()
// uses the paper's constants (astronomically conservative at laptop
// scale); Practical() keeps the structure and the asymptotic knobs but
// caps the iteration budgets so experiments finish. Every table in
// EXPERIMENTS.md was produced under Practical unless its notes say
// otherwise (see "Profile of constants" there).
type Profile struct {
	// RInitFactor: the initial solution assigns x_i(k) = RInitFactor*ε*ŵ_k
	// to saturated vertices (the paper's r = ε/256 means 1.0/256).
	RInitFactor float64
	// OuterRho is the outer covering width ρo (the paper proves 6 for the
	// penalty relaxation).
	OuterRho float64
	// InnerRhoEps: ρi = InnerRhoEps*(1/ε + 1/ε²) (paper: 8(1/ε + 1/ε²)
	// from the P_i box (24/ε + 24/ε²)ŵ_k against q_o = 3ŵ_k).
	InnerRhoEps float64
	// InnerIterCap caps packing iterations per MiniOracle call
	// (0 = theorem bound).
	InnerIterCap int
	// BinSearchCap bounds the Lemma 10 binary search depth.
	BinSearchCap int
	// SparsifierXi is the cut accuracy of the deferred sparsifiers
	// (paper: ε/16).
	SparsifierXi float64
	// SparsifierK overrides the per-level forest count (0 = default).
	SparsifierK int
	// OfflineExactLimit: vertex-count threshold for exact blossom on the
	// sampled union.
	OfflineExactLimit int
	// ZPruneRel drops accumulated z-sets below this fraction of the
	// largest (0 disables pruning).
	ZPruneRel float64
	// OddSetNormCap caps the odd-set norm the MicroOracle separates
	// (0 = the paper's 4/ε). The paper's bound is what the worst case
	// needs; on non-adversarial workloads small odd sets carry the gap
	// and the separation heuristic's cost grows with the cap.
	OddSetNormCap int
	// SigmaBoost multiplies the covering step size σ = ε/(4αρo) (1 =
	// PST's worst-case-safe step; larger values converge far faster on
	// real instances at the cost of the worst-case potential argument —
	// λ is re-evaluated exactly each round, so overshoot is observable,
	// not silent).
	SigmaBoost float64

	// Ablation switches (all false/zero in normal operation; see the
	// "ablations" experiment). DisableOddSets removes the MicroOracle's
	// odd-set pricing (Algorithm 5 steps 11-18), degenerating the dual to
	// the bipartite relaxation. StaleRefinement skips the deferred
	// refinement of Definition 4: sparsifiers are used with their
	// sampling-time promise weights instead of the drifted multipliers.
	// ChiOverride forces the deferred oversampling parameter χ (e.g. 1 =
	// no oversampling despite multiplier drift).
	DisableOddSets  bool
	StaleRefinement bool
	ChiOverride     float64
}

// Faithful returns the paper's constants.
func Faithful(eps float64) Profile {
	return Profile{
		RInitFactor:       1.0 / 256,
		OuterRho:          6,
		InnerRhoEps:       8,
		InnerIterCap:      0, // theorem bound
		BinSearchCap:      64,
		SparsifierXi:      eps / 16,
		OfflineExactLimit: 600,
		ZPruneRel:         0,
		SigmaBoost:        1,
	}
}

// Practical returns a profile that preserves the algorithm's structure
// while keeping iteration counts laptop-sized. The approximation quality
// under this profile is measured, not proven (experiment E1).
func Practical(eps float64) Profile {
	return Profile{
		RInitFactor:       1.0 / 8,
		OuterRho:          6,
		InnerRhoEps:       2,
		InnerIterCap:      24,
		BinSearchCap:      16,
		SparsifierXi:      math.Max(eps/4, 0.1),
		SparsifierK:       24,
		OfflineExactLimit: 600,
		ZPruneRel:         1e-9,
		SigmaBoost:        32,
		OddSetNormCap:     9,
	}
}

// InnerRho returns ρi for the given ε.
func (p Profile) InnerRho(eps float64) float64 {
	r := p.InnerRhoEps * (1/eps + 1/(eps*eps))
	if r < 2 {
		r = 2
	}
	return r
}
