package engine

// The enforceable resource axes of the paper, as engine inputs. The
// paper's whole point is that matching quality trades off against
// explicit resource constraints — passes over the data, adaptive rounds,
// central space — and the engine turns each axis from a post-hoc Stats
// reading into a budget enforced at pass and round boundaries, returning
// the best-so-far primal result when one trips. The public repro/match
// package re-exports these types; they live here because enforcement
// happens inside the shared round-loop driver and accountant, not in the
// facade and not in any one algorithm.

import (
	"errors"
	"fmt"
)

// Budget bounds the resources one solve run may consume. The zero value
// (and any zero field) means "unlimited" on that axis. An ample budget
// is a strict no-op: enforcement only reads the meters the engine
// already keeps, so a run that never trips is bit-identical to an
// unbudgeted run.
type Budget struct {
	// Passes bounds the metered passes over the input Source — the same
	// quantity Stats.Passes reports (per-level initial-solution views
	// meter their own passes and are charged to the conceptual round,
	// exactly as in Stats).
	Passes int `json:"passes,omitempty"`
	// Rounds bounds the adaptive rounds of the driver's round loop
	// (sampling rounds for the dual-primal solver, simulated clique
	// rounds for the distributed protocol, phases for Hopcroft–Karp).
	Rounds int `json:"rounds,omitempty"`
	// SpaceWords bounds the SpaceAccountant's high-water mark of central
	// storage (Stats.PeakWords).
	SpaceWords int `json:"spaceWords,omitempty"`
}

// IsZero reports whether no axis is constrained.
func (b Budget) IsZero() bool { return b.Passes == 0 && b.Rounds == 0 && b.SpaceWords == 0 }

// BudgetAxis names the resource axis that tripped a budget.
type BudgetAxis string

// The three resource axes of the paper: data accesses, adaptive rounds,
// central space.
const (
	AxisPasses     BudgetAxis = "passes"
	AxisRounds     BudgetAxis = "rounds"
	AxisSpaceWords BudgetAxis = "space-words"
)

// ErrBudgetExceeded is the sentinel all budget trips match via
// errors.Is. The concrete error is always a *BudgetError carrying the
// axis and the amounts; the solve's best-so-far result accompanies it.
var ErrBudgetExceeded = errors.New("resource budget exceeded")

// ErrUnsupported is the sentinel an Algorithm wraps when the instance
// falls outside its model (e.g. Hopcroft–Karp on a nonbipartite graph or
// non-unit capacities). It signals "wrong algorithm for this input", not
// a solver failure.
var ErrUnsupported = errors.New("algorithm does not support this instance")

// BudgetError reports which budget axis tripped. It matches
// ErrBudgetExceeded under errors.Is and is extracted with errors.As.
type BudgetError struct {
	// Axis is the resource that ran out.
	Axis BudgetAxis `json:"axis"`
	// Limit is the configured budget on that axis.
	Limit int `json:"limit"`
	// Used is the amount the run needed when it tripped (always > Limit:
	// for rounds it is the round the loop wanted to start, for passes and
	// space the metered consumption at the checkpoint).
	Used int `json:"used"`
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("resource budget exceeded on %s: used %d, limit %d", e.Axis, e.Used, e.Limit)
}

// Is matches the ErrBudgetExceeded sentinel.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// RoundEvent is the per-round notification of an Extensions.Observer:
// a snapshot of the dual trajectory and the resource meters, emitted
// once per round, at the start of the round, in round order.
type RoundEvent struct {
	// Round is the 1-based round about to run.
	Round int `json:"round"`
	// Lambda is the minimum normalized coverage entering the round, for
	// algorithms that maintain a dual (0 otherwise).
	Lambda float64 `json:"lambda"`
	// Beta is the primal target entering the round (0 for algorithms
	// without one).
	Beta float64 `json:"beta"`
	// Passes is the metered passes consumed so far.
	Passes int `json:"passes"`
	// PeakWords is the central-storage high-water mark so far.
	PeakWords int `json:"peakWords"`
}

// Extensions carries the per-run inputs of a driven run beyond the
// source: budgets only cut a run short and the observer only watches,
// while a warm start moves the dual trajectory's starting point.
type Extensions struct {
	// Budget bounds the run's resources; zero axes are unlimited.
	Budget Budget
	// Observer, when non-nil, receives one RoundEvent per round. It is
	// called synchronously from the solve goroutine and must not block.
	Observer func(RoundEvent)
	// Warm, when non-nil, requests a warm start from a prior run's
	// Extras.Duals. An algorithm installs it only when it addresses the
	// same discretization and otherwise runs cold; Stats.WarmStarted
	// reports which path ran.
	Warm *Duals
}
