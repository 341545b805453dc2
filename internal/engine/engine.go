// Package engine is the shared round-loop driver behind every matching
// substrate in this module. The paper's thesis is that passes, rounds
// and space are the currency in which different models of computation —
// semi-streaming, MapReduce, congested clique — pay for a matching; the
// engine makes that currency common infrastructure: one Run owns the
// SpaceAccountant, the pass meter, the round counter, the budget trips
// with best-so-far semantics and the per-round observer events, and
// every Algorithm (the dual-primal solver, the one-pass greedy
// baselines, the simulated clique protocol, the exact Hopcroft–Karp
// reference) plugs its own Init/Round/Finish into the same loop. Cross-
// model comparison then falls out of the registry: every registered
// algorithm answers with the same Outcome shape, metered the same way,
// budgeted and cancellable the same way.
package engine

import (
	"context"
	"errors"

	"repro/internal/matching"
	"repro/internal/stream"
)

// Algorithm is one matching substrate plugged into the driver's round
// loop. The contract:
//
//   - Init prepares all pre-loop state: instance scans, initial
//     solutions, data structures. It charges central allocations to
//     run.Acct, reads the stream only through the src it is handed (the
//     driver may have wrapped it for cancellation), and calls
//     run.Check() after each metered pass so pass/space budgets trip at
//     the same boundaries the paper's accounting recognizes.
//   - Round runs one adaptive round, or reports done. An implementation
//     first decides whether another round is needed; if yes it MUST call
//     run.BeginRound() before doing any work (that is where the rounds
//     budget trips and the observer event fires), then do the round and
//     return (false, nil). If converged, it returns (true, nil) without
//     consuming anything. Returning a non-nil error aborts the run with
//     best-so-far semantics.
//   - Finish reports the best matching found so far plus the extras. It
//     must be safe to call after a partial Init or mid-loop abort — on
//     cancellation or a budget trip the driver still calls Finish, and
//     "best so far" may legitimately be an empty matching.
//   - Reset prepares the same instance for another driven run: it clears
//     every per-run field (results, duals, convergence flags) while
//     *retaining* reusable scratch capacity, and absorbs the session's
//     Params again (a factory-fresh instance and a Reset one must be
//     indistinguishable to Init). Two contracts follow. Identity: solve →
//     Reset → solve is bit-identical to two cold solves, including every
//     resource meter — retained capacity must never surface as live words.
//     No aliasing: state reachable from a previously returned Outcome
//     (the matching's index slices above all) must not be mutated by the
//     next run; scratch that would alias a result is released, not
//     retained. The instance size n is not a Reset input — it is
//     rediscovered from the Source at Init, so one session can serve
//     instances of different shapes (reuse simply pays allocation again
//     when the shape grows).
type Algorithm interface {
	Init(ctx context.Context, run *Run, src stream.Source) error
	Round(ctx context.Context, run *Run) (done bool, err error)
	Finish(run *Run) (*matching.Matching, Extras)
	Reset(p Params)
}

// Run owns the resource machinery of one driven solve: the space
// accountant, the pass meter baseline, the round counter, the budget,
// the observer and the warm-start request. Algorithms read and charge
// it; the driver settles it into the Outcome.
type Run struct {
	// Acct meters words of central storage; its high-water mark is the
	// space axis the paper bounds. Algorithms Alloc/Free on it directly.
	Acct *stream.SpaceAccountant

	// Lambda and Beta are the algorithm-published dual trajectory that
	// the next RoundEvent snapshots. Algorithms that maintain a dual set
	// them before calling BeginRound; others leave them zero.
	Lambda, Beta float64

	src      stream.Source
	ctx      context.Context
	arena    *Arena
	budget   Budget
	observer func(RoundEvent)
	warm     *Duals
	passes0  int
	rounds   int
}

// Arena returns the run's scratch arena: the capacity its Session
// retains across runs, empty on a session's first run. Algorithms draw
// working buffers from it instead of make so a reused session converges
// to near-zero allocation; the buffers come back logically fresh either
// way, so taking scratch from the arena never changes results.
func (r *Run) Arena() *Arena { return r.arena }

// Warm returns the run's warm-start request (Extensions.Warm; nil for
// a cold run). An algorithm that keeps a dual installs it at Init when
// it addresses the instance; others ignore it.
func (r *Run) Warm() *Duals { return r.warm }

// Rounds returns how many rounds have begun (1-based inside a round's
// body, equal to the completed count between rounds).
func (r *Run) Rounds() int { return r.rounds }

// Passes returns the metered passes consumed by this run so far.
func (r *Run) Passes() int { return r.src.Passes() - r.passes0 }

// BeginRound opens the next round: it trips the rounds budget exactly
// when the algorithm wants a round it is not allowed (a run that
// converges within budget never trips), counts the round, and emits the
// per-round observer event. Algorithms call it
// once per round, after deciding the round is needed and before doing
// any of its work.
func (r *Run) BeginRound() error {
	if r.budget.Rounds > 0 && r.rounds >= r.budget.Rounds {
		return &BudgetError{Axis: AxisRounds, Limit: r.budget.Rounds, Used: r.rounds + 1}
	}
	r.rounds++
	if r.observer != nil {
		r.observer(RoundEvent{Round: r.rounds, Lambda: r.Lambda, Beta: r.Beta,
			Passes: r.Passes(), PeakWords: r.Acct.Peak()})
	}
	return nil
}

// Check is the pass/round-boundary checkpoint: context first, then the
// pass and space budgets against the live meters. All reads, no writes —
// an un-tripped run is bit-identical to an unbudgeted one. Algorithms
// call it after every metered pass and every central allocation; the
// driver also calls it after Init and between rounds.
func (r *Run) Check() error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if r.budget.Passes > 0 {
		if used := r.Passes(); used > r.budget.Passes {
			return &BudgetError{Axis: AxisPasses, Limit: r.budget.Passes, Used: used}
		}
	}
	if r.budget.SpaceWords > 0 {
		if peak := r.Acct.Peak(); peak > r.budget.SpaceWords {
			return &BudgetError{Axis: AxisSpaceWords, Limit: r.budget.SpaceWords, Used: peak}
		}
	}
	return nil
}

// Extras carries the algorithm-specific outcome fields beyond the
// matching itself. Algorithms without a dual leave the dual fields zero;
// CertifiedUpperBound then reports +Inf, which is honest.
type Extras struct {
	// Weight is the matching's weight in original units.
	Weight float64
	// DualObjective is the final dual objective scaled back to original
	// units (0 when the algorithm computes no dual).
	DualObjective float64
	// Lambda is the final minimum normalized coverage over kept edges (0
	// when the algorithm computes no dual).
	Lambda float64
	// Stats holds the algorithm's own counters; those it has no
	// machinery for stay zero. The driver fills in the meters it keeps
	// itself: SamplingRounds, Passes and PeakWords.
	Stats Stats
	// Duals is a detached snapshot of the final dual state, installable
	// into a later run through Extensions.Warm (nil for algorithms
	// without duals and for runs that aborted before the duals existed).
	Duals *Duals
}

// Stats reports the resources a solve actually consumed — the
// quantities the paper's theorems bound. All fields marshal to JSON. The
// per-round λ/β trajectory is not stored here; register an Observer to
// stream it.
type Stats struct {
	// SamplingRounds is the number of adaptive access rounds (Theorem 15
	// bounds it by O(p/ε)).
	SamplingRounds int `json:"samplingRounds"`
	// InitRounds is the rounds consumed by the per-level initial
	// solution (Lemma 20).
	InitRounds int `json:"initRounds"`
	// OracleUses counts sequential deferred-sparsifier uses — the
	// "adaptivity at use" the paper separates from data access.
	OracleUses int `json:"oracleUses"`
	// MicroCalls counts MicroOracle invocations.
	MicroCalls int `json:"microCalls"`
	// PackIters counts inner packing iterations.
	PackIters int `json:"packIters"`
	// Passes is the metered passes over the input Source.
	Passes int `json:"passes"`
	// PeakSampleEdges is the peak count of sampled edges held centrally.
	PeakSampleEdges int `json:"peakSampleEdges"`
	// PeakWords is the high-water mark of metered central storage.
	PeakWords int `json:"peakWords"`
	// DualStateWords is the final size of the dual state.
	DualStateWords int `json:"dualStateWords"`
	// UnionSizes lists, per sampling round, the offline-solve union size.
	UnionSizes []int `json:"unionSizes,omitempty"`
	// WitnessEvents counts MicroOracle part (i) firings.
	WitnessEvents int `json:"witnessEvents"`
	// EarlyStopped reports whether the dual certificate reached its
	// target before the round budget ran out.
	EarlyStopped bool `json:"earlyStopped"`
	// WarmStarted reports that the solve installed a prior solution's
	// dual snapshot (WithInitialDuals) instead of building the initial
	// solution; a requested-but-invalid snapshot falls back to the cold
	// start and reports false.
	WarmStarted bool `json:"warmStarted"`
	// RoundOfBestMatching is the 1-based sampling round in which the
	// reported matching was found.
	RoundOfBestMatching int `json:"roundOfBestMatching"`
}

// Duals is a portable snapshot of a solve's final dual state, detached
// from the solver that produced it: installing it cannot alias live
// session state, and the producing session reusing its buffers cannot
// corrupt it. The dual-primal solver produces it, and installs it as a
// warm start when it addresses the same discretization.
type Duals struct {
	// N, Eps, WStar, TotalB fingerprint the discretization the snapshot
	// was taken under; all four must match for the snapshot to be
	// installable (they fully determine the level scheme).
	N      int
	Eps    float64
	WStar  float64
	TotalB int
	// NumLevels is the level count of the scheme (derived, kept for the
	// flat X layout).
	NumLevels int
	// X is the flat [vertex*NumLevels + level] table of x_i(k) values in
	// actual (unscaled) units.
	X []float64
	// Z holds the odd-set duals in actual units.
	Z []ZSet
}

// ZSet is one odd-set dual z_{U,ℓ} of a Duals snapshot.
type ZSet struct {
	Members []int32
	Level   int
	Val     float64
}

// Outcome is what the driver settles a run into: the best matching and
// the algorithm extras, with the driver's resource meters in Stats.
type Outcome struct {
	// Matching is the best matching found (never nil; possibly empty).
	Matching *matching.Matching
	Extras
}

// drive runs alg under the shared round loop, drawing scratch from
// arena: cancellation is honored at pass and round boundaries (in-flight
// sequential sweeps abort at the next block boundary), budgets
// trip at the same checkpoints, and a trip or cancellation returns the
// best-so-far Outcome together with the error. A *stream.ReadError a
// sweep raises fails the run through the same abort path. A budget trip
// fires only at checkpoints, so the dual fields an algorithm reports are
// the last completely evaluated ones and a positive certificate stands;
// a non-budget abort can interrupt a dual evaluation mid-flight, leaving
// an unsound prefix-minimum, so those runs surrender the certificate:
// Lambda is zeroed and only the primal matching is the contract. The
// Outcome is non-nil on every path.
func drive(ctx context.Context, alg Algorithm, src stream.Source, ext Extensions, arena *Arena) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := &Outcome{Matching: &matching.Matching{}}
	if src.Len() == 0 {
		return out, nil
	}
	src = stream.Cancellable(ctx, src)
	run := &Run{
		Acct:     stream.NewSpaceAccountant(),
		src:      src,
		ctx:      ctx,
		arena:    arena,
		budget:   ext.Budget,
		observer: ext.Observer,
		warm:     ext.Warm,
		passes0:  src.Passes(),
	}
	// finish settles the Outcome — the one block shared by the normal
	// exit and every abort, so completed and tripped/cancelled runs can
	// never diverge on a field.
	finish := func(err error) (*Outcome, error) {
		m, ex := alg.Finish(run)
		if m != nil {
			out.Matching = m
		}
		out.Extras = ex
		out.Stats.SamplingRounds = run.rounds
		out.Stats.Passes = run.Passes()
		out.Stats.PeakWords = run.Acct.Peak()
		if err != nil {
			var be *BudgetError
			if !errors.As(err, &be) {
				out.Lambda = 0
			}
		}
		return out, err
	}
	if err := stream.CatchReadError(func() error { return alg.Init(ctx, run, src) }); err != nil {
		return finish(err)
	}
	if err := run.Check(); err != nil {
		return finish(err)
	}
	for {
		var done bool
		err := stream.CatchReadError(func() (err error) {
			done, err = alg.Round(ctx, run)
			return err
		})
		if err != nil {
			return finish(err)
		}
		if done {
			break
		}
		if err := run.Check(); err != nil {
			return finish(err)
		}
	}
	return finish(nil)
}
