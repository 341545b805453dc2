package match

import (
	"math"

	"repro/internal/engine"
	"repro/internal/matching"
)

// Matching is a feasible b-matching: edge indices into the solved
// Source's sequence, with per-edge multiplicities (multiplicity is 1 in
// ordinary matchings; Mult may be empty then).
type Matching struct {
	// EdgeIdx are the selected edges' indices in the input stream.
	EdgeIdx []int `json:"edgeIdx"`
	// Mult holds the multiplicity of each selected edge, parallel to
	// EdgeIdx (empty = all 1).
	Mult []int `json:"mult,omitempty"`
}

// Size returns the number of matched edges counting multiplicity.
func (m *Matching) Size() int { return m.asInternal().Size() }

// asInternal adapts to the internal matching representation (nil Mult
// means all-ones there; an empty public Mult converts back to nil).
func (m *Matching) asInternal() *matching.Matching {
	im := &matching.Matching{EdgeIdx: m.EdgeIdx}
	if len(m.Mult) > 0 {
		im.Mult = m.Mult
	}
	return im
}

// Stats reports the resources a solve actually consumed — the
// quantities the paper's theorems bound. All fields marshal to JSON. The
// per-round λ/β trajectory is not stored here; register an Observer to
// stream it. Algorithms other than the dual-primal solver fill the
// engine's meters (rounds, passes, peak words) and EarlyStopped, and
// leave the solver-specific counters zero.
type Stats = engine.Stats

// Result is the outcome of a Solve: the primal matching, the dual
// certificate, and the resource stats. It marshals to JSON as-is
// (every field is finite; the possibly-infinite certified bound is a
// method, not a field).
type Result struct {
	// Matching is the best integral b-matching found.
	Matching Matching `json:"matching"`
	// Weight is the matching's weight in original units.
	Weight float64 `json:"weight"`
	// DualObjective is the final dual objective scaled back to original
	// units.
	DualObjective float64 `json:"dualObjective"`
	// Lambda is the final minimum normalized coverage over kept edges.
	Lambda float64 `json:"lambda"`
	// Eps is the accuracy target the run was configured with — baked in
	// here so the certificate below cannot be computed against a
	// mismatched ε.
	Eps float64 `json:"eps"`
	// Stats meters what the run consumed.
	Stats Stats `json:"stats"`

	// warm is the detached dual snapshot a later solve can seed from via
	// WithInitialDuals (nil for algorithms without duals and for runs
	// that aborted before the duals existed). Deliberately unexported:
	// it is an opaque handle, not part of the JSON surface.
	warm *engine.Duals
}

// CertifiedUpperBound returns the dual certificate's upper bound on the
// optimum matching weight: (dual objective)/λ with the (1+ε)
// discretization slack folded in, using the ε the solve ran with. Valid
// (up to the weight mass dropped by discretization) whenever Lambda > 0
// by weak duality; returns +Inf when Lambda <= 0 — check before
// marshaling it anywhere. Cancelled runs carry no certificate (the
// engine zeroes Lambda, so this reports +Inf); a budget-tripped run
// keeps the last completely evaluated λ — its certificate stands when
// Lambda > 0, and a trip early enough that no λ pass had run yet
// reports +Inf like any other certificate-free result.
func (r *Result) CertifiedUpperBound() float64 {
	if r.Lambda <= 0 {
		return math.Inf(1)
	}
	return r.DualObjective / r.Lambda * (1 + r.Eps)
}

// Validate checks the matching's degree feasibility against any Source
// in one metered pass and O(|M|) memory.
func (r *Result) Validate(src Source) error {
	return r.Matching.asInternal().ValidateStream(src)
}

// fromOutcome converts a driver Outcome to the public shape, baking in
// the solve-time ε.
func fromOutcome(out *engine.Outcome, eps float64) *Result {
	return &Result{
		Matching:      Matching{EdgeIdx: out.Matching.EdgeIdx, Mult: out.Matching.Mult},
		Weight:        out.Weight,
		DualObjective: out.DualObjective,
		Lambda:        out.Lambda,
		Eps:           eps,
		Stats:         out.Stats,
		warm:          out.Duals,
	}
}
