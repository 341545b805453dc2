package oddset

import "sort"

// Laminar-family utilities (Theorem 22). A family of vertex sets is
// laminar if every two members are either disjoint or nested. Theorem 22
// shows optimal duals of LP2 can be uncrossed into a laminar family by
// repeatedly replacing a crossing pair {A, B} with {A-B, B-A} (when
// ||A∩B||_b is even) or {A∪B, A∩B} (odd), preserving objective and
// feasibility.

// setOps computes intersection, union and differences of two sorted
// int slices.
func setOps(a, b []int) (inter, union, aMinusB, bMinusA []int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			aMinusB = append(aMinusB, a[i])
			union = append(union, a[i])
			i++
		case a[i] > b[j]:
			bMinusA = append(bMinusA, b[j])
			union = append(union, b[j])
			j++
		default:
			inter = append(inter, a[i])
			union = append(union, a[i])
			i++
			j++
		}
	}
	aMinusB = append(aMinusB, a[i:]...)
	union = append(union, a[i:]...)
	bMinusA = append(bMinusA, b[j:]...)
	union = append(union, b[j:]...)
	return
}

// Crossing reports whether sorted sets a and b cross (intersect without
// nesting).
func Crossing(a, b []int) bool {
	inter, _, aMinusB, bMinusA := setOps(a, b)
	return len(inter) > 0 && len(aMinusB) > 0 && len(bMinusA) > 0
}

// IsLaminar reports whether the family (of sorted sets) is laminar.
func IsLaminar(sets [][]int) bool {
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			if Crossing(sets[i], sets[j]) {
				return false
			}
		}
	}
	return true
}

// WeightedFamily is a family of sets with dual multipliers z_U > 0 and
// vertex multipliers x (Theorem 22's objects).
type WeightedFamily struct {
	Sets []([]int) // sorted member lists
	Z    []float64
	X    []float64 // per-vertex duals
	B    []int     // per-vertex norms (nil = ones)
}

func (f *WeightedFamily) bnorm(v int) int {
	if f.B == nil {
		return 1
	}
	return f.B[v]
}

func (f *WeightedFamily) norm(set []int) int {
	s := 0
	for _, v := range set {
		s += f.bnorm(v)
	}
	return s
}

// UncrossOnce finds one crossing pair with positive multipliers and
// applies the Theorem 22 exchange, preserving
//
//	Σ_i b_i x_i + Σ_U floor(||U||_b/2) z_U   (the objective) and
//	x_i + x_j + Σ_{U∋i,j} z_U                (every edge's coverage).
//
// It returns false if the family is already laminar.
func (f *WeightedFamily) UncrossOnce() bool {
	for i := 0; i < len(f.Sets); i++ {
		if f.Z[i] <= 0 {
			continue
		}
		for j := i + 1; j < len(f.Sets); j++ {
			if f.Z[j] <= 0 || !Crossing(f.Sets[i], f.Sets[j]) {
				continue
			}
			z := f.Z[i]
			if f.Z[j] < z {
				z = f.Z[j]
			}
			inter, union, aMinusB, bMinusA := setOps(f.Sets[i], f.Sets[j])
			f.Z[i] -= z
			f.Z[j] -= z
			if f.norm(inter)%2 == 0 {
				// A-B and B-A are odd; raise x on the even intersection.
				f.addSet(aMinusB, z)
				f.addSet(bMinusA, z)
				for _, v := range inter {
					f.X[v] += z
				}
			} else {
				// A∪B and A∩B are odd.
				f.addSet(union, z)
				f.addSet(inter, z)
			}
			f.compact()
			return true
		}
	}
	return false
}

// addSet adds multiplier z to the (sorted) set, merging with an existing
// identical set if present. Sets that are empty or singletons fold into
// nothing (their floor(||U||_b/2) z contribution is handled by the
// caller semantics: a singleton odd set has floor(b/2) possibly > 0 for
// b > 1, so we keep sets of size >= 2; size-1 sets with b=1 contribute 0
// and cover no edges, so they are dropped).
func (f *WeightedFamily) addSet(set []int, z float64) {
	if len(set) < 2 {
		if len(set) == 1 && f.bnorm(set[0]) > 1 {
			// keep: it still contributes floor(b/2) and covers no edge
		} else {
			return
		}
	}
	for k := range f.Sets {
		if equalInts(f.Sets[k], set) {
			f.Z[k] += z
			return
		}
	}
	f.Sets = append(f.Sets, append([]int(nil), set...))
	f.Z = append(f.Z, z)
}

func (f *WeightedFamily) compact() {
	var sets [][]int
	var zs []float64
	for k := range f.Sets {
		if f.Z[k] > 1e-15 {
			sets = append(sets, f.Sets[k])
			zs = append(zs, f.Z[k])
		}
	}
	f.Sets, f.Z = sets, zs
}

// Uncross applies UncrossOnce until laminar (or the iteration bound
// trips, which would indicate a bug — each exchange strictly decreases
// Σ z_U ||U||_b or lexicographic successors per Theorem 22).
func (f *WeightedFamily) Uncross(maxIters int) bool {
	for it := 0; it < maxIters; it++ {
		if !f.UncrossOnce() {
			return true
		}
	}
	return false
}

// ActiveSets returns the sets with positive multiplier, sorted for
// deterministic comparison.
func (f *WeightedFamily) ActiveSets() [][]int {
	var out [][]int
	for k := range f.Sets {
		if f.Z[k] > 1e-15 {
			out = append(out, f.Sets[k])
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessInts(out[i], out[j]) })
	return out
}

// Objective returns Σ b_i x_i + Σ floor(||U||_b/2) z_U.
func (f *WeightedFamily) Objective() float64 {
	t := 0.0
	for v, x := range f.X {
		t += float64(f.bnorm(v)) * x
	}
	for k, set := range f.Sets {
		t += f.Z[k] * float64(f.norm(set)/2)
	}
	return t
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessInts(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
