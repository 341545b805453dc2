// Package unionfind implements a disjoint-set forest with union by rank
// and path halving. It is the workhorse of the spanning-forest layers in
// the streaming sparsifier (Algorithm 6 of Ahn–Guha) and of connectivity
// checks in tests.
package unionfind

// UF is a disjoint-set forest over elements 0..n-1.
type UF struct {
	parent []int32
	rank   []int8
	comps  int
}

// New returns a union-find structure with n singleton sets.
func New(n int) *UF {
	u := &UF{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		comps:  n,
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Len returns the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Components returns the current number of disjoint sets.
func (u *UF) Components() int { return u.comps }

// Find returns the canonical representative of x's set.
func (u *UF) Find(x int) int {
	p := int32(x)
	for u.parent[p] != p {
		u.parent[p] = u.parent[u.parent[p]] // path halving
		p = u.parent[p]
	}
	return int(p)
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false if they were already in the same set).
func (u *UF) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = int32(rx)
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.comps--
	return true
}

// Same reports whether x and y are in the same set.
func (u *UF) Same(x, y int) bool { return u.Find(x) == u.Find(y) }

// Reset restores the structure to n singleton sets without reallocating.
func (u *UF) Reset() {
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	clear(u.rank)
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
