package pack

import (
	"testing"

	"repro/internal/xrand"
)

// identityOracle: packing system I·x <= 1 over P = {x >= 0, Σx = s}. The
// oracle puts all mass on the smallest multiplier.
func identityOracle(m int, s, delta float64) Oracle {
	return func(z []float64, _ int) ([]float64, bool) {
		best, sum := 0, 0.0
		for r := range z {
			sum += z[r]
			if z[r] < z[best] {
				best = r
			}
		}
		if s*z[best] > (1+delta/2)*sum {
			return nil, false
		}
		a := make([]float64, m)
		a[best] = s
		return a, true
	}
}

func TestPackIdentityFeasible(t *testing.T) {
	const m = 8
	delta := 1.0 / 6
	s := 4.0 // fits: balanced x has max 0.5 <= 1
	init := make([]float64, m)
	init[0] = s // all mass on row 0: λp0 = s
	res, err := Solve(init, identityOracle(m, s, delta), Options{Delta: delta, RhoPrime: s})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Solved {
		t.Fatalf("status %v (λp %f, %d iters)", res.Status, res.LambdaP, res.Iters)
	}
	if res.LambdaP > 1+6*delta {
		t.Fatalf("λp %f above target", res.LambdaP)
	}
}

func TestPackAlreadyFeasible(t *testing.T) {
	init := []float64{0.5, 0.7}
	res, err := Solve(init, nil, Options{Delta: 0.1, RhoPrime: 2})
	if err != nil || res.Status != Solved || res.Iters != 0 {
		t.Fatalf("already-feasible start mishandled: %+v err=%v", res, err)
	}
}

func TestPackValidatesInput(t *testing.T) {
	if _, err := Solve([]float64{1}, nil, Options{Delta: 0, RhoPrime: 1}); err == nil {
		t.Fatal("delta=0 accepted")
	}
	if _, err := Solve([]float64{1}, nil, Options{Delta: 0.1, RhoPrime: 0}); err == nil {
		t.Fatal("rho'=0 accepted")
	}
}

func TestPackOracleFailurePropagates(t *testing.T) {
	init := []float64{5, 0}
	orc := func(z []float64, _ int) ([]float64, bool) { return nil, false }
	res, err := Solve(init, orc, Options{Delta: 0.1, RhoPrime: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != OracleFailed {
		t.Fatalf("status %v", res.Status)
	}
}

func TestPackIterLimit(t *testing.T) {
	m := 3
	stuck := func(z []float64, _ int) ([]float64, bool) {
		return []float64{5, 5, 5}, true
	}
	res, err := Solve([]float64{5, 5, 5}, stuck, Options{Delta: 0.1, RhoPrime: 5, MaxIters: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != IterLimit || res.Iters != 30 {
		t.Fatalf("status %v iters %d", res.Status, res.Iters)
	}
	_ = m
}

func TestPackMultipliersFavorHighRows(t *testing.T) {
	var captured []float64
	orc := func(z []float64, _ int) ([]float64, bool) {
		if captured == nil {
			captured = append([]float64(nil), z...)
		}
		return []float64{0, 0, 0}, true
	}
	init := []float64{4, 2, 1}
	if _, err := Solve(init, orc, Options{Delta: 0.1, RhoPrime: 4}); err != nil {
		t.Fatal(err)
	}
	if captured[0] <= captured[1] || captured[1] <= captured[2] {
		t.Fatalf("multipliers not increasing with row value: %v", captured)
	}
}

func TestPackRandomSystems(t *testing.T) {
	// Random packing: columns of A in [0, 1], P = {x >= 0, Σx = s} with s
	// small enough that balancing keeps every row below 1.
	for seed := uint64(0); seed < 10; seed++ {
		r := xrand.New(seed)
		m, n := 6, 5
		A := make([][]float64, m)
		for i := range A {
			A[i] = make([]float64, n)
			for j := range A[i] {
				A[i][j] = r.Float64()
			}
		}
		s := 1.2
		delta := 1.0 / 6
		orc := func(z []float64, _ int) ([]float64, bool) {
			bestJ, bestV := 0, 1e300
			for j := 0; j < n; j++ {
				v := 0.0
				for i := 0; i < m; i++ {
					v += z[i] * A[i][j]
				}
				if v < bestV {
					bestJ, bestV = j, v
				}
			}
			sum := 0.0
			for _, zv := range z {
				sum += zv
			}
			if s*bestV > (1+delta/2)*sum {
				return nil, false
			}
			a := make([]float64, m)
			for i := 0; i < m; i++ {
				a[i] = s * A[i][bestJ]
			}
			return a, true
		}
		init := make([]float64, m)
		for i := range init {
			init[i] = s * A[i][0]
		}
		res, err := Solve(init, orc, Options{Delta: delta, RhoPrime: s})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == IterLimit {
			t.Fatalf("seed %d: iteration limit (λp %f)", seed, res.LambdaP)
		}
	}
}
