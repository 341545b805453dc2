// Package pack implements the fractional packing framework of Plotkin,
// Shmoys and Tardos as restated in Theorem 7 of the paper, with the
// Corollary 8 relaxation: the oracle may return any x̃ ∈ P with
// zᵀApx̃ <= (1+δ/2)·zᵀd. It is the inner loop of the dual-primal method
// (Theorem 4): the MicroOracle's Lagrangian answers are converted into
// packing-oracle answers by the ϱ binary search of Lemma 10, and this
// solver drives the packed system Pox <= 2qo to near-feasibility in
// O(ρi log ρi log ño) oracle calls.
package pack

import (
	"errors"
	"math"
)

// Status reports how a Solve run ended.
type Status int

const (
	// Solved: the row values reached λp <= 1+6δ.
	Solved Status = iota
	// OracleFailed: the oracle reported it cannot meet the Corollary 8
	// inequality (the packing system is infeasible over P).
	OracleFailed
	// IterLimit: the safety iteration cap was reached.
	IterLimit
)

// String renders the status for logs and errors.
func (s Status) String() string {
	switch s {
	case Solved:
		return "solved"
	case OracleFailed:
		return "oracle-failed"
	case IterLimit:
		return "iteration-limit"
	default:
		return "unknown"
	}
}

// Oracle receives multipliers z (one per row, normalized by d) and must
// return normalized row values a_r = (Apx̃)_r/d_r of a solution x̃ ∈ P
// with Σ z_r a_r <= (1+δ/2) Σ z_r, or ok=false.
type Oracle func(z []float64, step int) (rowValues []float64, ok bool)

// Options configures the solver.
type Options struct {
	// Delta is the packing accuracy δ (the dual-primal core uses ε/6).
	Delta float64
	// RhoPrime is the packing width ρ′: max over P of (Apx)_r/d_r.
	RhoPrime float64
	// MaxIters caps oracle calls; 0 derives the theorem bound.
	MaxIters int
	// OnAccept, if non-nil, is called after each accepted oracle answer
	// with the step size σ′ used in x ← (1-σ′)x + σ′x̃, so callers can
	// mirror the framework's averaging on their own representation of x̃.
	OnAccept func(iter int, sigma float64)
}

// Result carries the outcome.
type Result struct {
	Rows    []float64
	LambdaP float64 // max row value
	Iters   int
	Status  Status
}

// Solve runs the packing framework from initial normalized row values
// (Apx0)_r/d_r for some x0 ∈ P (δ0 in the theorem is their maximum).
func Solve(initRows []float64, oracle Oracle, opt Options) (Result, error) {
	m := len(initRows)
	if m == 0 {
		return Result{Status: Solved}, nil
	}
	if !(opt.Delta > 0) || opt.Delta > 1 {
		return Result{}, errors.New("pack: Delta must be in (0, 1]")
	}
	if !(opt.RhoPrime > 0) {
		return Result{}, errors.New("pack: RhoPrime must be positive")
	}
	rows := append([]float64(nil), initRows...)
	lambdaP := maxOf(rows)
	delta := opt.Delta
	target := 1 + 6*delta
	maxIters := opt.MaxIters
	if maxIters == 0 {
		// Theorem 7's T = O(ρ′(δ⁻² + log δ0) log M′) with hidden
		// constant ~64.
		d0 := lambdaP
		if d0 < 1 {
			d0 = 1
		}
		t := opt.RhoPrime * (1/(delta*delta) + math.Log(d0)) * math.Log(float64(m)/delta)
		maxIters = int(64*t) + 64
	}
	z := make([]float64, m)
	iters := 0
	for lambdaP > target {
		lambdaT := lambdaP
		alpha := 2 * math.Log(float64(m)/delta) / (lambdaT * delta)
		// The classical step uses α λ_t >= ln(m/δ)/δ relative to the
		// *current* scale; σ' = δ/(4 α' ρ').
		sigma := delta / (4 * alpha * opt.RhoPrime)
		phaseEnd := lambdaT / 2
		if phaseEnd < target {
			phaseEnd = target
		}
		for lambdaP > phaseEnd {
			if iters >= maxIters {
				return Result{Rows: rows, LambdaP: lambdaP, Iters: iters, Status: IterLimit}, nil
			}
			maxR := maxOf(rows)
			for r := range z {
				z[r] = math.Exp(alpha * (rows[r] - maxR))
			}
			a, ok := oracle(z, iters)
			if !ok {
				return Result{Rows: rows, LambdaP: lambdaP, Iters: iters, Status: OracleFailed}, nil
			}
			if len(a) != m {
				return Result{}, errors.New("pack: oracle returned wrong row count")
			}
			for r := range rows {
				rows[r] = (1-sigma)*rows[r] + sigma*a[r]
			}
			if opt.OnAccept != nil {
				opt.OnAccept(iters, sigma)
			}
			lambdaP = maxOf(rows)
			iters++
		}
	}
	return Result{Rows: rows, LambdaP: lambdaP, Iters: iters, Status: Solved}, nil
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
