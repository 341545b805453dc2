package match

import "repro/internal/engine"

// Budget bounds the resources one Solve may consume along the paper's
// three axes. The zero value (and any zero field) means "unlimited" on
// that axis:
//
//   - Passes bounds the metered passes over the input Source — the same
//     quantity Stats.Passes reports.
//   - Rounds bounds the adaptive sampling rounds
//     (Stats.SamplingRounds).
//   - SpaceWords bounds the high-water mark of central storage
//     (Stats.PeakWords).
//
// Enforcement happens inside the engine at pass and round boundaries.
// When an axis runs out, Solve returns the best-so-far Result plus a
// *BudgetError naming the axis; an ample budget is a strict no-op (the
// run is bit-identical to an unbudgeted one).
type Budget = engine.Budget

// BudgetAxis names the resource axis that tripped a budget.
type BudgetAxis = engine.BudgetAxis

// The three resource axes of the paper: data accesses, adaptive rounds,
// central space.
const (
	AxisPasses     = engine.AxisPasses
	AxisRounds     = engine.AxisRounds
	AxisSpaceWords = engine.AxisSpaceWords
)

// ErrBudgetExceeded is the sentinel every budget trip matches via
// errors.Is. The concrete error is always a *BudgetError; extract it
// with errors.As to learn the axis and the amounts.
var ErrBudgetExceeded = engine.ErrBudgetExceeded

// BudgetError reports which budget axis tripped, the configured limit,
// and the consumption that exceeded it. It accompanies a best-so-far
// Result — a budget trip is a bounded answer, not a failure.
type BudgetError = engine.BudgetError
