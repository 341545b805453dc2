// Package unionfind implements a disjoint-set forest with union by rank
// and path halving. It is the workhorse of the spanning-forest layers in
// the streaming sparsifier (Algorithm 6 of Ahn–Guha) and of connectivity
// checks in tests.
package unionfind

// UF is a disjoint-set forest over elements 0..n-1. parent[x] holds x's
// parent, or −1−rank when x is a root, so a forest is one int32 a
// element and Union reads a root's rank from the word Find just loaded.
type UF struct {
	parent []int32
	comps  int
}

// New returns a union-find structure with n singleton sets.
func New(n int) *UF {
	u := &UF{parent: make([]int32, n), comps: n}
	u.Reset()
	return u
}

// Len returns the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Components returns the current number of disjoint sets.
func (u *UF) Components() int { return u.comps }

// Find returns the canonical representative of x's set.
func (u *UF) Find(x int) int {
	p := int32(x)
	for {
		q := u.parent[p]
		if q < 0 {
			return int(p)
		}
		g := u.parent[q]
		if g < 0 {
			return int(q)
		}
		u.parent[p] = g // path halving
		p = g
	}
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false if they were already in the same set).
func (u *UF) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	// A root's word is −1−rank: the higher rank is the lower word.
	if u.parent[rx] > u.parent[ry] {
		rx, ry = ry, rx
	}
	if u.parent[rx] == u.parent[ry] {
		u.parent[rx]-- // rank + 1
	}
	u.parent[ry] = int32(rx)
	u.comps--
	return true
}

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y int) bool { return u.Find(x) == u.Find(y) }

// Reset restores the structure to n singleton sets without reallocating.
func (u *UF) Reset() {
	for i := range u.parent {
		u.parent[i] = -1
	}
	u.comps = len(u.parent)
}

// Sets returns the current partition as a map from representative to
// members. Intended for tests and small-instance verification.
func (u *UF) Sets() map[int][]int {
	out := make(map[int][]int)
	for i := range u.parent {
		r := u.Find(i)
		out[r] = append(out[r], i)
	}
	return out
}
