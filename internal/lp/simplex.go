// Package lp provides a small dense linear-programming toolkit: a
// two-phase primal simplex solver (Bland's rule, suitable for the small
// verification instances in this repository) and builders for the paper's
// LP formulations (LP1–LP11), including odd-set constraints enumerated
// exhaustively on small graphs.
//
// It exists to verify the paper's structural claims numerically:
// equality of the penalty relaxations with the exact matching LP
// (LP3/LP4, Theorem 23's LP10 vs LP11), the width separation between the
// standard dual LP2 and the penalty dual LP4 (experiment E6), and the
// triangle-gap example of Section 1 (experiment E5).
package lp

import (
	"fmt"
	"math"
)

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective is unbounded above.
	Unbounded
)

// String renders the status for logs and errors.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Problem is max C·x subject to A x <= B, x >= 0. Use negated rows to
// express >= constraints and paired rows for equalities.
type Problem struct {
	C [][]float64 // unused; reserved (kept nil)
	c []float64
	a [][]float64
	b []float64
}

// NewProblem creates a problem with the given objective (maximize).
func NewProblem(obj []float64) *Problem {
	c := append([]float64(nil), obj...)
	return &Problem{c: c}
}

// AddLE adds the constraint row·x <= rhs.
func (p *Problem) AddLE(row []float64, rhs float64) {
	if len(row) != len(p.c) {
		panic("lp: row length mismatch")
	}
	p.a = append(p.a, append([]float64(nil), row...))
	p.b = append(p.b, rhs)
}

// AddGE adds the constraint row·x >= rhs.
func (p *Problem) AddGE(row []float64, rhs float64) {
	neg := make([]float64, len(row))
	for i, v := range row {
		neg[i] = -v
	}
	p.AddLE(neg, -rhs)
}

const eps = 1e-9

// Solve runs two-phase simplex. On Optimal it returns the variable values
// and the objective.
func (p *Problem) Solve() (x []float64, value float64, status Status) {
	m := len(p.a)
	n := len(p.c)
	if m == 0 {
		// Unconstrained: bounded only if c <= 0.
		x = make([]float64, n)
		for _, cv := range p.c {
			if cv > eps {
				return nil, 0, Unbounded
			}
		}
		return x, 0, Optimal
	}
	// Tableau columns: n structural + m slack + up to m artificial + RHS.
	// Rows with negative RHS are negated (slack coefficient -1) and given
	// an artificial variable.
	needArt := 0
	for i := 0; i < m; i++ {
		if p.b[i] < 0 {
			needArt++
		}
	}
	total := n + m + needArt
	t := make([][]float64, m+1)
	for i := range t {
		t[i] = make([]float64, total+1)
	}
	basis := make([]int, m)
	artCols := []int{}
	ai := 0
	for i := 0; i < m; i++ {
		sign := 1.0
		if p.b[i] < 0 {
			sign = -1
		}
		for j := 0; j < n; j++ {
			t[i][j] = sign * p.a[i][j]
		}
		t[i][n+i] = sign // slack
		t[i][total] = sign * p.b[i]
		if sign < 0 {
			col := n + m + ai
			t[i][col] = 1
			basis[i] = col
			artCols = append(artCols, col)
			ai++
		} else {
			basis[i] = n + i
		}
	}
	// Phase 1: minimize sum of artificials = maximize -sum. The tableau
	// objective row stores negated costs (row entry < 0 marks an
	// improving column), so artificial columns get +1 here.
	if needArt > 0 {
		obj := t[m]
		for j := range obj {
			obj[j] = 0
		}
		for _, col := range artCols {
			obj[col] = 1
		}
		// Price out the artificial basis columns.
		for i := 0; i < m; i++ {
			if t[m][basis[i]] != 0 {
				pivotPrice(t, i, basis[i], m, total)
			}
		}
		if st := simplexLoop(t, basis, m, total); st == Unbounded {
			return nil, 0, Infeasible // cannot happen; defensive
		}
		if t[m][total] < -1e-7 {
			return nil, 0, Infeasible
		}
		// Drive any remaining artificial variables out of the basis.
		for i := 0; i < m; i++ {
			if !isArt(basis[i], n+m) {
				continue
			}
			pivoted := false
			for j := 0; j < n+m; j++ {
				if math.Abs(t[i][j]) > eps {
					pivot(t, i, j, m, total)
					basis[i] = j
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; leave the artificial at zero.
				continue
			}
		}
		// Remove artificial columns by zeroing them (simplexLoop below
		// never enters a column with objective coefficient <= 0 and we
		// will set them so).
		for _, col := range artCols {
			for i := 0; i <= m; i++ {
				t[i][col] = 0
			}
		}
	}
	// Phase 2: objective row = -c (we maximize; row stores negated
	// reduced costs so that "negative entry" means improving column).
	obj := t[m]
	for j := range obj {
		obj[j] = 0
	}
	for j := 0; j < n; j++ {
		obj[j] = -p.c[j]
	}
	for i := 0; i < m; i++ {
		if t[m][basis[i]] != 0 {
			pivotPrice(t, i, basis[i], m, total)
		}
	}
	if st := simplexLoop(t, basis, m, total); st == Unbounded {
		return nil, 0, Unbounded
	}
	x = make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = t[i][total]
		}
	}
	return x, t[m][total], Optimal
}

func isArt(col, artStart int) bool { return col >= artStart }

// simplexLoop runs Bland's rule until optimality or unboundedness.
func simplexLoop(t [][]float64, basis []int, m, total int) Status {
	for iter := 0; ; iter++ {
		if iter > 200000 {
			panic("lp: simplex iteration limit (cycling?)")
		}
		// Bland: choose the lowest-index column with negative reduced cost.
		col := -1
		for j := 0; j < total; j++ {
			if t[m][j] < -eps {
				col = j
				break
			}
		}
		if col == -1 {
			return Optimal
		}
		// Ratio test, Bland tie-break on basis index.
		row := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if t[i][col] > eps {
				r := t[i][total] / t[i][col]
				if r < best-eps || (r < best+eps && (row == -1 || basis[i] < basis[row])) {
					best = r
					row = i
				}
			}
		}
		if row == -1 {
			return Unbounded
		}
		pivot(t, row, col, m, total)
		basis[row] = col
	}
}

// pivot performs a full pivot on (row, col).
func pivot(t [][]float64, row, col, m, total int) {
	pv := t[row][col]
	for j := 0; j <= total; j++ {
		t[row][j] /= pv
	}
	for i := 0; i <= m; i++ {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			t[i][j] -= f * t[row][j]
		}
	}
}

// pivotPrice eliminates the objective-row entry of a basis column.
func pivotPrice(t [][]float64, row, col, m, total int) {
	f := t[m][col] / t[row][col]
	if f == 0 {
		return
	}
	for j := 0; j <= total; j++ {
		t[m][j] -= f * t[row][j]
	}
}
