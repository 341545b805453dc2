package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/levels"
)

func testScheme(t *testing.T) *levels.Scheme {
	t.Helper()
	s, err := levels.NewScheme(0.25, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDualStateXBasics(t *testing.T) {
	sc := testScheme(t)
	st := newDualState(sc, 4, 0)
	st.SetInit([]xEntry{{v: 0, k: 1, val: 2.5}, {v: 0, k: 3, val: 1.0}})
	if got := st.XI(0, 1); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("XI = %f", got)
	}
	if got := st.XMax(0); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("XMax = %f", got)
	}
	if st.XI(1, 1) != 0 {
		t.Fatal("untouched vertex has mass")
	}
}

func TestDualStateZLookup(t *testing.T) {
	sc := testScheme(t)
	st := newDualState(sc, 6, 0)
	ans := &oracleAnswer{zEntries: []zEntry{
		{members: []int32{0, 1, 2}, level: 2, val: 3},
		{members: []int32{1, 3, 4}, level: 0, val: 5},
	}}
	st.Average(0.5, ans) // scale 0.5, values halved into state
	// Edge (0,1) at level >= 2 sees the first set.
	if got := st.ZAt(0, 1, 2); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("ZAt(0,1,2) = %f", got)
	}
	// Below the set's level it does not apply.
	if got := st.ZAt(0, 1, 1); got != 0 {
		t.Fatalf("ZAt(0,1,1) = %f", got)
	}
	// Edge (1,3) sees the second set from level 0 up.
	if got := st.ZAt(1, 3, 0); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("ZAt(1,3,0) = %f", got)
	}
	// Non-member pair sees nothing.
	if got := st.ZAt(0, 5, 3); got != 0 {
		t.Fatalf("ZAt(0,5) = %f", got)
	}
}

func TestDualStateAveragePreservesScaleSemantics(t *testing.T) {
	sc := testScheme(t)
	st := newDualState(sc, 3, 0)
	st.SetInit([]xEntry{{v: 0, k: 0, val: 1}})
	// Average with sigma = 0.25 and an answer of 2 at the same slot:
	// new value = 0.75*1 + 0.25*2 = 1.25.
	st.Average(0.25, &oracleAnswer{xEntries: []xEntry{{v: 0, k: 0, val: 2}}})
	if got := st.XI(0, 0); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("averaged XI = %f", got)
	}
	// A slot untouched by the answer decays by (1-sigma).
	st2 := newDualState(sc, 3, 0)
	st2.SetInit([]xEntry{{v: 1, k: 2, val: 4}})
	st2.Average(0.5, &oracleAnswer{})
	if got := st2.XI(1, 2); math.Abs(got-2) > 1e-12 {
		t.Fatalf("decayed XI = %f", got)
	}
}

func TestDualStateRescaleStability(t *testing.T) {
	sc := testScheme(t)
	st := newDualState(sc, 2, 0)
	st.SetInit([]xEntry{{v: 0, k: 0, val: 1}})
	// Thousands of small decays must not underflow.
	for i := 0; i < 500000; i++ {
		st.Average(0.01, &oracleAnswer{})
	}
	if got := st.XI(0, 0); got < 0 || math.IsNaN(got) {
		t.Fatalf("XI corrupted: %v", got)
	}
}

func TestDualStateObjective(t *testing.T) {
	sc := testScheme(t)
	st := newDualState(sc, 4, 0)
	st.SetInit([]xEntry{{v: 0, k: 0, val: 2}, {v: 1, k: 1, val: 3}})
	st.Average(0.5, &oracleAnswer{zEntries: []zEntry{{members: []int32{0, 1, 2}, level: 0, val: 4}}})
	b := func(v int) int { return 1 }
	// After averaging: x0=1, x1=1.5, z=2 on a set of norm 3 (floor 1).
	want := 1.0 + 1.5 + 2.0
	if got := st.Objective(b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("objective %f, want %f", got, want)
	}
}

func TestDualStateCoverage(t *testing.T) {
	sc := testScheme(t)
	st := newDualState(sc, 3, 0)
	st.SetInit([]xEntry{{v: 0, k: 1, val: 1}, {v: 1, k: 1, val: 0.5}})
	st.Average(0.5, &oracleAnswer{zEntries: []zEntry{{members: []int32{0, 1, 2}, level: 1, val: 1}}})
	// coverage(0,1,1) = 0.5 + 0.25 + 0.5 = 1.25
	if got := st.Coverage(0, 1, 1); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("coverage %f", got)
	}
	ratio := st.CoverageRatio(0, 1, 1)
	if math.Abs(ratio-1.25/sc.WHat(1)) > 1e-12 {
		t.Fatalf("ratio %f", ratio)
	}
}

func TestDualStateLambda(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 8)
	g.MustAddEdge(1, 2, 16)
	sc, err := levels.NewScheme(0.25, g.MaxWeight(), g.TotalB())
	if err != nil {
		t.Fatal(err)
	}
	st := newDualState(sc, 3, 0)
	// Cover both edges at their levels to a known ratio.
	k1, _ := sc.Level(8)
	k2, _ := sc.Level(16)
	st.SetInit([]xEntry{
		{v: 0, k: k1, val: 0.3 * sc.WHat(k1)},
		{v: 2, k: k2, val: 0.8 * sc.WHat(k2)},
	})
	// λ is the least normalized coverage over the kept edges.
	lam := math.Inf(1)
	for _, e := range g.Edges() {
		k, _ := sc.Level(e.W)
		lam = math.Min(lam, st.CoverageRatio(e.U, e.V, k))
	}
	if math.Abs(lam-0.3) > 1e-9 {
		t.Fatalf("lambda %f, want 0.3", lam)
	}
}

func TestDualStatePrune(t *testing.T) {
	sc := testScheme(t)
	st := newDualState(sc, 40, 1e-6)
	// One large set and many tiny ones; pruning should drop the tiny.
	big := &oracleAnswer{zEntries: []zEntry{{members: []int32{0, 1, 2}, level: 0, val: 1000}}}
	st.Average(0.5, big)
	for i := 0; i < 200; i++ {
		tiny := &oracleAnswer{zEntries: []zEntry{{members: []int32{3, 4, 5}, level: 0, val: 1e-12}}}
		st.Average(1e-6, tiny)
	}
	if len(st.zsets) > 170 {
		t.Fatalf("prune did not trigger: %d sets", len(st.zsets))
	}
	if st.ZAt(0, 1, 0) == 0 {
		t.Fatal("prune dropped the large set")
	}
}
