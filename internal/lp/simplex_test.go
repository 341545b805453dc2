package lp

import (
	"math"
	"testing"
)

func solveOK(t *testing.T, p *Problem) ([]float64, float64) {
	t.Helper()
	x, v, st := p.Solve()
	if st != Optimal {
		t.Fatalf("status %v", st)
	}
	return x, v
}

func TestSimplexBasic2D(t *testing.T) {
	// max 3x + 2y st x+y <= 4, x <= 2 -> x=2,y=2, value 10.
	p := NewProblem([]float64{3, 2})
	p.AddLE([]float64{1, 1}, 4)
	p.AddLE([]float64{1, 0}, 2)
	x, v := solveOK(t, p)
	if math.Abs(v-10) > 1e-7 || math.Abs(x[0]-2) > 1e-7 || math.Abs(x[1]-2) > 1e-7 {
		t.Fatalf("x=%v v=%f", x, v)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	p := NewProblem([]float64{1})
	p.AddLE([]float64{-1}, 0) // x >= 0 only
	if _, _, st := p.Solve(); st != Unbounded {
		t.Fatalf("status %v, want unbounded", st)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	p := NewProblem([]float64{1})
	p.AddLE([]float64{1}, 1)
	p.AddGE([]float64{1}, 2)
	if _, _, st := p.Solve(); st != Infeasible {
		t.Fatalf("status %v, want infeasible", st)
	}
}

func TestSimplexGEAndEquality(t *testing.T) {
	// max x + y st x + y == 3, x <= 1 -> value 3 with x=1,y=2 (any split).
	p := NewProblem([]float64{1, 1})
	p.AddLE([]float64{1, 1}, 3)
	p.AddGE([]float64{1, 1}, 3)
	p.AddLE([]float64{1, 0}, 1)
	x, v := solveOK(t, p)
	if math.Abs(v-3) > 1e-7 {
		t.Fatalf("x=%v v=%f", x, v)
	}
}

func TestSimplexMinViaNegation(t *testing.T) {
	// min 2x + 3y st x + y >= 4, x,y >= 0 -> 8 at x=4.
	p := NewProblem([]float64{-2, -3})
	p.AddGE([]float64{1, 1}, 4)
	x, v := solveOK(t, p)
	if math.Abs(-v-8) > 1e-7 || math.Abs(x[0]-4) > 1e-7 {
		t.Fatalf("x=%v v=%f", x, v)
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// Degenerate vertex (redundant constraints) must not cycle.
	p := NewProblem([]float64{1, 1})
	p.AddLE([]float64{1, 0}, 1)
	p.AddLE([]float64{0, 1}, 1)
	p.AddLE([]float64{1, 1}, 2)
	p.AddLE([]float64{2, 2}, 4)
	_, v := solveOK(t, p)
	if math.Abs(v-2) > 1e-7 {
		t.Fatalf("v=%f", v)
	}
}

func TestSimplexNoConstraints(t *testing.T) {
	p := NewProblem([]float64{-1, -2})
	x, v, st := p.Solve()
	if st != Optimal || v != 0 || x[0] != 0 {
		t.Fatalf("x=%v v=%f st=%v", x, v, st)
	}
	p2 := NewProblem([]float64{1})
	if _, _, st := p2.Solve(); st != Unbounded {
		t.Fatal("positive objective with no constraints should be unbounded")
	}
}

func TestSimplexRedundantEqualities(t *testing.T) {
	// Same equality twice (redundant row must not break phase 1).
	p := NewProblem([]float64{1})
	for i := 0; i < 2; i++ {
		p.AddLE([]float64{1}, 2)
		p.AddGE([]float64{1}, 2)
	}
	x, v := solveOK(t, p)
	if math.Abs(v-2) > 1e-7 || math.Abs(x[0]-2) > 1e-7 {
		t.Fatalf("x=%v v=%f", x, v)
	}
}

func TestSimplexNegativeRHS(t *testing.T) {
	// max -x st -x <= -3 (i.e. x >= 3) -> x=3, value -3.
	p := NewProblem([]float64{-1})
	p.AddLE([]float64{-1}, -3)
	x, v := solveOK(t, p)
	if math.Abs(x[0]-3) > 1e-7 || math.Abs(v+3) > 1e-7 {
		t.Fatalf("x=%v v=%f", x, v)
	}
}

func TestSimplexBiggerSystem(t *testing.T) {
	// Transportation-like LP with known optimum.
	// max 5a+4b+3c st 2a+3b+c<=5, 4a+b+2c<=11, 3a+4b+2c<=8 -> 13.
	p := NewProblem([]float64{5, 4, 3})
	p.AddLE([]float64{2, 3, 1}, 5)
	p.AddLE([]float64{4, 1, 2}, 11)
	p.AddLE([]float64{3, 4, 2}, 8)
	_, v := solveOK(t, p)
	if math.Abs(v-13) > 1e-7 {
		t.Fatalf("v=%f, want 13", v)
	}
}
