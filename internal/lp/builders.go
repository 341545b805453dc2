package lp

import (
	"math"

	"repro/internal/graph"
)

// Builders for the paper's LP formulations on small graphs. Odd sets are
// enumerated exhaustively (exponential) — these builders exist for
// verification experiments on instances with at most ~16 vertices.

// OddSets enumerates all odd sets (3 <= |U| <= maxSize, ||U||_b odd) as
// vertex lists.
func OddSets(g *graph.Graph, maxSize int) [][]int {
	var sets [][]int
	g.EnumerateOddSets(maxSize, func(set []int) bool {
		sets = append(sets, append([]int(nil), set...))
		return true
	})
	return sets
}

// MatchingLP1 builds the exact matching LP (LP1): variables y_e,
// maximize Σ w_e y_e subject to vertex degree constraints and all odd-set
// constraints. Returns the optimum β*.
func MatchingLP1(g *graph.Graph) (float64, Status) {
	m := g.M()
	obj := make([]float64, m)
	for i, e := range g.Edges() {
		obj[i] = e.W
	}
	p := NewProblem(obj)
	addDegreeRows(p, g)
	for _, set := range OddSets(g, g.N()) {
		row := make([]float64, m)
		mask := g.SetMask(set)
		for i, e := range g.Edges() {
			if mask[e.U] && mask[e.V] {
				row[i] = 1
			}
		}
		p.AddLE(row, math.Floor(float64(g.SetBNorm(set))/2))
	}
	_, v, st := p.Solve()
	return v, st
}

// BipartiteRelaxation builds LP1 without the odd-set constraints (the
// fractional matching polytope); its value can exceed β* on nonbipartite
// graphs — the Section 1 triangle example quantifies the gap.
func BipartiteRelaxation(g *graph.Graph) (float64, Status) {
	m := g.M()
	obj := make([]float64, m)
	for i, e := range g.Edges() {
		obj[i] = e.W
	}
	p := NewProblem(obj)
	addDegreeRows(p, g)
	_, v, st := p.Solve()
	return v, st
}

func addDegreeRows(p *Problem, g *graph.Graph) {
	m := g.M()
	for v := 0; v < g.N(); v++ {
		row := make([]float64, m)
		any := false
		for i, e := range g.Edges() {
			if int(e.U) == v || int(e.V) == v {
				row[i] = 1
				any = true
			}
		}
		if any {
			p.AddLE(row, float64(g.B(v)))
		}
	}
}

// MatchingDualLP2 builds and solves the dual (LP2): variables x_i and
// z_U, minimize Σ b_i x_i + Σ floor(||U||_b/2) z_U subject to edge cover
// constraints. Returns the optimum (equal to LP1's by strong duality).
func MatchingDualLP2(g *graph.Graph) (float64, Status) {
	sets := OddSets(g, g.N())
	n := g.N()
	nv := n + len(sets)
	obj := make([]float64, nv) // minimize => maximize negation
	for v := 0; v < n; v++ {
		obj[v] = -float64(g.B(v))
	}
	for s, set := range sets {
		obj[n+s] = -math.Floor(float64(g.SetBNorm(set)) / 2)
	}
	p := NewProblem(obj)
	masks := make([][]bool, len(sets))
	for s, set := range sets {
		masks[s] = g.SetMask(set)
	}
	for _, e := range g.Edges() {
		row := make([]float64, nv)
		row[e.U] += 1
		row[e.V] += 1
		for s := range sets {
			if masks[s][e.U] && masks[s][e.V] {
				row[n+s] = 1
			}
		}
		p.AddGE(row, e.W)
	}
	_, v, st := p.Solve()
	return -v, st
}

// PenaltyPrimalLP3 builds the penalty-based primal (LP3, unit weights):
// max Σ y_e - 3 Σ μ_i, where each vertex may exceed its capacity by 2μ_i
// and each odd set by Σ_{i∈U} μ_i, charged in the objective. The paper
// proves (via total dual integrality) that the optimum equals LP1's for
// w_ij = 1. Only meaningful for unit-weight graphs.
//
//lint:deadexport paper object: the penalty relaxation LP3, checked against LP1 by the lp tests
func PenaltyPrimalLP3(g *graph.Graph) (float64, Status) {
	m := g.M()
	n := g.N()
	nv := m + n // y then mu
	obj := make([]float64, nv)
	for i := range g.Edges() {
		obj[i] = 1
	}
	for v := 0; v < n; v++ {
		obj[m+v] = -3
	}
	p := NewProblem(obj)
	for v := 0; v < n; v++ {
		row := make([]float64, nv)
		for i, e := range g.Edges() {
			if int(e.U) == v || int(e.V) == v {
				row[i] = 1
			}
		}
		row[m+v] = -2
		p.AddLE(row, float64(g.B(v)))
	}
	for _, set := range OddSets(g, g.N()) {
		row := make([]float64, nv)
		mask := g.SetMask(set)
		for i, e := range g.Edges() {
			if mask[e.U] && mask[e.V] {
				row[i] = 1
			}
		}
		for _, v := range set {
			row[m+v] = -1
		}
		p.AddLE(row, math.Floor(float64(g.SetBNorm(set))/2))
	}
	_, v, st := p.Solve()
	return v, st
}

// PenaltyDualLP4 builds the penalty dual (LP4, unit weights): LP2 plus
// the box constraints 2x_i + Σ_{U∋i} z_U <= 3 contributed by the penalty
// variables — the formulation whose width is an absolute constant (<= 6).
// Returns the optimum.
//
//lint:deadexport paper object: the penalty dual LP4, checked against LP2 by the lp tests
func PenaltyDualLP4(g *graph.Graph) (float64, Status) {
	sets := OddSets(g, g.N())
	n := g.N()
	nv := n + len(sets)
	obj := make([]float64, nv)
	for v := 0; v < n; v++ {
		obj[v] = -float64(g.B(v))
	}
	for s, set := range sets {
		obj[n+s] = -math.Floor(float64(g.SetBNorm(set)) / 2)
	}
	p := NewProblem(obj)
	masks := make([][]bool, len(sets))
	for s, set := range sets {
		masks[s] = g.SetMask(set)
	}
	for _, e := range g.Edges() {
		row := make([]float64, nv)
		row[e.U] += 1
		row[e.V] += 1
		for s := range sets {
			if masks[s][e.U] && masks[s][e.V] {
				row[n+s] = 1
			}
		}
		p.AddGE(row, 1)
	}
	// Penalty box: 2x_i + Σ_{U∋i} z_U <= 3.
	for v := 0; v < n; v++ {
		row := make([]float64, nv)
		row[v] = 2
		for s := range sets {
			if masks[s][v] {
				row[n+s] = 1
			}
		}
		p.AddLE(row, 3)
	}
	_, v, st := p.Solve()
	return -v, st
}

// WidthLP2 measures the width of the standard dual LP2's covering rows:
// the maximum of (x_i + x_j + Σ_{U∋i,j} z_U)/w_e over the region
// normalized by the objective bound b·x + Σ floor z <= beta. This grows
// with beta (and hence with n for unit weights) — the "width parameter of
// LP1 is at least n" observation. maxSetSize limits the enumerated odd
// sets (the width is attained on vertex duals, so restricting sets does
// not change the answer).
func WidthLP2(g *graph.Graph, beta float64, maxSetSize int) float64 {
	sets := OddSets(g, maxSetSize)
	n := g.N()
	nv := n + len(sets)
	masks := make([][]bool, len(sets))
	for s, set := range sets {
		masks[s] = g.SetMask(set)
	}
	width := 0.0
	for _, e := range g.Edges() {
		obj := make([]float64, nv)
		obj[e.U] += 1
		obj[e.V] += 1
		for s := range sets {
			if masks[s][e.U] && masks[s][e.V] {
				obj[n+s] = 1
			}
		}
		p := NewProblem(obj)
		row := make([]float64, nv)
		for v := 0; v < n; v++ {
			row[v] = float64(g.B(v))
		}
		for s, set := range sets {
			row[n+s] = math.Floor(float64(g.SetBNorm(set)) / 2)
		}
		p.AddLE(row, beta)
		_, v, st := p.Solve()
		if st == Optimal && v/e.W > width {
			width = v / e.W
		}
		if st == Unbounded {
			return math.Inf(1)
		}
	}
	return width
}

// WidthLP4 measures the width of the penalty dual LP4's covering rows
// under its box constraints 2x_i + Σ_{U∋i} z_U <= 3; the paper proves it
// is at most 6 regardless of the graph or the odd-set family.
func WidthLP4(g *graph.Graph, maxSetSize int) float64 {
	sets := OddSets(g, maxSetSize)
	n := g.N()
	nv := n + len(sets)
	masks := make([][]bool, len(sets))
	for s, set := range sets {
		masks[s] = g.SetMask(set)
	}
	width := 0.0
	for _, e := range g.Edges() {
		obj := make([]float64, nv)
		obj[e.U] += 1
		obj[e.V] += 1
		for s := range sets {
			if masks[s][e.U] && masks[s][e.V] {
				obj[n+s] = 1
			}
		}
		p := NewProblem(obj)
		for v := 0; v < n; v++ {
			row := make([]float64, nv)
			row[v] = 2
			for s := range sets {
				if masks[s][v] {
					row[n+s] = 1
				}
			}
			p.AddLE(row, 3)
		}
		_, v, st := p.Solve()
		if st == Optimal && v > width {
			width = v
		}
		if st == Unbounded {
			return math.Inf(1)
		}
	}
	return width
}
