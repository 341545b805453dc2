package oddset

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// randomInstance builds a small random separation instance.
func randomInstance(seed uint64, n int) *Instance {
	r := xrand.New(seed)
	in := &Instance{N: n, MaxNorm: 7, Eps: 0.25}
	in.QHat = make([]float64, n)
	for v := 0; v < n; v++ {
		in.QHat[v] = r.Float64() * 3
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bernoulli(0.4) {
				in.Edges = append(in.Edges, QEdge{int32(i), int32(j), r.Float64() * 2})
			}
		}
	}
	return in
}

func TestCollectDisjointAndConditionI(t *testing.T) {
	f := func(seed uint64) bool {
		in := randomInstance(seed, 8)
		sets := in.Collect()
		if !disjoint(sets) {
			return false
		}
		for _, s := range sets {
			if in.setNorm(s.Members)%2 == 0 || in.setNorm(s.Members) > in.MaxNorm {
				return false
			}
			if !in.meetsConditionI(s.Members) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectExactCoversAllDenseSets(t *testing.T) {
	// Condition (ii): every dense odd set must intersect the collection.
	f := func(seed uint64) bool {
		in := randomInstance(seed, 8)
		sets := in.Collect()
		used := map[int]bool{}
		for _, s := range sets {
			for _, v := range s.Members {
				used[v] = true
			}
		}
		// Enumerate all odd sets up to MaxNorm and check.
		g := graph.New(in.N)
		ok := true
		g.EnumerateOddSets(in.MaxNorm, func(set []int) bool {
			if !in.isDense(set) {
				return true
			}
			hit := false
			for _, v := range set {
				if used[v] {
					hit = true
					break
				}
			}
			if !hit {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectFindsObviousTriangle(t *testing.T) {
	// A heavy triangle with tiny vertex budgets must be collected.
	in := &Instance{
		N:       5,
		QHat:    []float64{0.1, 0.1, 0.1, 5, 5},
		MaxNorm: 5,
		Eps:     0.25,
		Edges: []QEdge{
			{0, 1, 2}, {1, 2, 2}, {0, 2, 2}, // dense triangle
			{3, 4, 0.1}, // light edge elsewhere
		},
	}
	sets := in.Collect()
	if len(sets) == 0 {
		t.Fatal("no sets collected")
	}
	found := false
	for _, s := range sets {
		sort.Ints(s.Members)
		if len(s.Members) == 3 && s.Members[0] == 0 && s.Members[1] == 1 && s.Members[2] == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("triangle not collected: %v", sets)
	}
}

func TestCollectEmptyWhenSparse(t *testing.T) {
	// Huge vertex budgets: nothing is dense.
	in := &Instance{
		N:       6,
		QHat:    []float64{100, 100, 100, 100, 100, 100},
		MaxNorm: 5,
		Eps:     0.25,
		Edges:   []QEdge{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}},
	}
	if sets := in.Collect(); len(sets) != 0 {
		t.Fatalf("collected %v from sparse instance", sets)
	}
}

func TestCollectHeuristicOnLargerGraph(t *testing.T) {
	// Plant k dense triangles in a big sparse graph; the heuristic must
	// find most of them (all, in this deterministic construction).
	const k = 20
	n := 3*k + 200
	in := &Instance{N: n, MaxNorm: 5, Eps: 0.25}
	in.QHat = make([]float64, n)
	for v := range in.QHat {
		in.QHat[v] = 0.5
	}
	for t3 := 0; t3 < k; t3++ {
		a := 3 * t3
		in.Edges = append(in.Edges,
			QEdge{int32(a), int32(a + 1), 3},
			QEdge{int32(a + 1), int32(a + 2), 3},
			QEdge{int32(a), int32(a + 2), 3})
	}
	// Sparse noise among the remaining vertices.
	r := xrand.New(9)
	for i := 0; i < 400; i++ {
		u := 3*k + r.Intn(200)
		v := 3*k + r.Intn(200)
		if u != v {
			in.Edges = append(in.Edges, QEdge{int32(u), int32(v), 0.01})
		}
	}
	sets := in.collectHeuristic(in.supportVertices())
	if !disjoint(sets) {
		t.Fatal("heuristic sets not disjoint")
	}
	dense := 0
	for _, s := range sets {
		if !in.meetsConditionI(s.Members) {
			t.Fatalf("heuristic returned non-(i) set %v", s.Members)
		}
		if len(s.Members) == 3 && s.Members[0] < 3*k {
			dense++
		}
	}
	if dense < k*3/4 {
		t.Fatalf("heuristic found only %d of %d planted triangles", dense, k)
	}
}

func TestHeuristicAgreesWithExactOnDensity(t *testing.T) {
	// On small instances, every dense set found by the heuristic must be
	// found (or intersected) by the exact collection and vice versa.
	for seed := uint64(0); seed < 20; seed++ {
		in := randomInstance(seed, 9)
		exact := in.collectExact(in.supportVertices())
		heur := in.collectHeuristic(in.supportVertices())
		if !disjoint(heur) {
			t.Fatal("heuristic not disjoint")
		}
		for _, s := range heur {
			if !in.meetsConditionI(s.Members) {
				t.Fatalf("seed %d: heuristic set fails (i)", seed)
			}
		}
		_ = exact
	}
}

func TestBNormHandling(t *testing.T) {
	in := &Instance{
		N:       4,
		BNorm:   []int{2, 1, 1, 1}, // set {0,1} has norm 3 (odd, size 2 — too small by membership rule)
		QHat:    []float64{0, 0, 0, 0},
		MaxNorm: 5,
		Eps:     0.25,
		Edges:   []QEdge{{0, 1, 5}, {1, 2, 5}, {0, 2, 5}},
	}
	// {0,1,2} has norm 4 (even) — not eligible; {1,2,3} has no edges to 3...
	// {0,1,2,3} has norm 5 (odd) and internal 15.
	sets := in.Collect()
	for _, s := range sets {
		if in.setNorm(s.Members)%2 == 0 {
			t.Fatalf("even-norm set collected: %v", s.Members)
		}
	}
}

func TestSetOps(t *testing.T) {
	a := []int{1, 2, 3, 5}
	b := []int{3, 4, 5, 7}
	inter, union, ab, ba := setOps(a, b)
	if !equalInts(inter, []int{3, 5}) || !equalInts(union, []int{1, 2, 3, 4, 5, 7}) ||
		!equalInts(ab, []int{1, 2}) || !equalInts(ba, []int{4, 7}) {
		t.Fatalf("setOps wrong: %v %v %v %v", inter, union, ab, ba)
	}
}

func TestCrossingAndLaminar(t *testing.T) {
	if Crossing([]int{1, 2}, []int{3, 4}) {
		t.Fatal("disjoint sets reported crossing")
	}
	if Crossing([]int{1, 2, 3}, []int{2, 3}) {
		t.Fatal("nested sets reported crossing")
	}
	if !Crossing([]int{1, 2}, []int{2, 3}) {
		t.Fatal("crossing sets not detected")
	}
	if !IsLaminar([][]int{{1, 2, 3}, {1, 2}, {4, 5}}) {
		t.Fatal("laminar family rejected")
	}
	if IsLaminar([][]int{{1, 2}, {2, 3}}) {
		t.Fatal("crossing family accepted")
	}
}

func TestUncrossPreservesObjectiveAndCoverage(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 6 + r.Intn(4)
		fam := &WeightedFamily{X: make([]float64, n)}
		for v := range fam.X {
			fam.X[v] = r.Float64()
		}
		// Random odd sets (size 3 or 5) with positive z.
		for s := 0; s < 4; s++ {
			size := 3
			if r.Bernoulli(0.4) {
				size = 5
			}
			perm := r.Perm(n)[:size]
			sort.Ints(perm)
			fam.Sets = append(fam.Sets, perm)
			fam.Z = append(fam.Z, 0.2+r.Float64())
		}
		objBefore := fam.Objective()
		type pair struct{ i, j int }
		var pairs []pair
		var covBefore []float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, pair{i, j})
				covBefore = append(covBefore, fam.coverage(i, j))
			}
		}
		if !fam.Uncross(1000) {
			return false
		}
		if !IsLaminar(fam.ActiveSets()) {
			return false
		}
		if math.Abs(fam.Objective()-objBefore) > 1e-9 {
			return false
		}
		for k, pr := range pairs {
			if fam.coverage(pr.i, pr.j) < covBefore[k]-1e-9 {
				return false // coverage must not decrease (feasibility)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The Lemma 24 predicates and the laminar coverage the tests check
// Collect and Uncross against.

// setNorm returns ||U||_b.
func (in *Instance) setNorm(set []int) int {
	s := 0
	for _, v := range set {
		s += in.bnorm(v)
	}
	return s
}

// isDense reports the strict density condition (the negation of Lemma
// 24's condition (ii)): internal(U) > (qhat(U) - (1-Eps))/2.
func (in *Instance) isDense(set []int) bool {
	return in.internalCharge(set) > (in.qHatSum(set)-(1-in.Eps))/2
}

// meetsConditionI reports Lemma 24's condition (i):
// internal(U) >= (qhat(U) - 1)/2.
func (in *Instance) meetsConditionI(set []int) bool {
	return in.internalCharge(set) >= (in.qHatSum(set)-1)/2-1e-12
}

// disjoint reports whether the sets in the collection are pairwise
// disjoint.
func disjoint(sets []Set) bool {
	seen := make(map[int]bool)
	for _, s := range sets {
		for _, v := range s.Members {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
	}
	return true
}

// coverage returns x_i + x_j + Σ_{U∋i,j} z_U for an edge (i, j).
func (f *WeightedFamily) coverage(i, j int) float64 {
	c := f.X[i] + f.X[j]
	for k, set := range f.Sets {
		if f.Z[k] <= 0 {
			continue
		}
		hasI, hasJ := false, false
		for _, v := range set {
			if v == i {
				hasI = true
			}
			if v == j {
				hasJ = true
			}
		}
		if hasI && hasJ {
			c += f.Z[k]
		}
	}
	return c
}

// internalCharge returns the total edge charge inside the set.
func (in *Instance) internalCharge(set []int) float64 {
	mask := make(map[int32]bool, len(set))
	for _, v := range set {
		mask[int32(v)] = true
	}
	t := 0.0
	for _, e := range in.Edges {
		if mask[e.U] && mask[e.V] {
			t += e.Q
		}
	}
	return t
}

// qHatSum returns Σ_{i∈U} qhat_i.
func (in *Instance) qHatSum(set []int) float64 {
	t := 0.0
	for _, v := range set {
		t += in.QHat[v]
	}
	return t
}
