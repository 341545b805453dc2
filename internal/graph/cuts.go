package graph

// Cut and set-weight evaluation helpers. These are the ground truth the
// sparsifier tests and the odd-set constraints are checked against.
//
// The paper decomposes the odd-set constraint
//   sum_{(i,j): i,j in U} y_ij <= floor(||U||_b / 2)
// into "sum and difference of cuts" (Section 1); CutWeight is the cut
// primitive.

// CutWeight returns the total weight of edges with exactly one endpoint in
// the set (the cut weight of U). inSet must have length N.
func (g *Graph) CutWeight(inSet []bool) float64 {
	s := 0.0
	for _, e := range g.edges {
		if inSet[e.U] != inSet[e.V] {
			s += e.W
		}
	}
	return s
}

// SetMask converts a vertex list into a membership mask of length N.
func (g *Graph) SetMask(set []int) []bool {
	m := make([]bool, g.n)
	for _, v := range set {
		m[v] = true
	}
	return m
}

// EnumerateOddSets calls f for every subset U of the vertices with
// 3 <= |U| <= maxSize and ||U||_b odd. Exponential; intended only for
// small verification instances (N <= ~20). f receives a reused slice; it
// must copy if it retains the set. If f returns false enumeration stops.
func (g *Graph) EnumerateOddSets(maxSize int, f func(set []int) bool) {
	if maxSize > g.n {
		maxSize = g.n
	}
	set := make([]int, 0, maxSize)
	var rec func(start int)
	stopped := false
	rec = func(start int) {
		if stopped {
			return
		}
		if len(set) >= 3 && g.SetBOdd(set) {
			if !f(set) {
				stopped = true
				return
			}
		}
		if len(set) == maxSize {
			return
		}
		for v := start; v < g.n; v++ {
			set = append(set, v)
			rec(v + 1)
			set = set[:len(set)-1]
			if stopped {
				return
			}
		}
	}
	rec(0)
}
