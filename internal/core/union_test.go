package core

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// TestSortUnionMatchesSortFunc checks the radix union order against a
// comparison sort on unions with repeated indices, for source lengths
// just either side of 2^8, 2^16 and 2^24 — where the top digit's width
// changes — and union sizes either side of the insertion-sort cutoff.
func TestSortUnionMatchesSortFunc(t *testing.T) {
	r := xrand.New(3)
	for _, m := range []int{1<<8 - 1, 1<<8 + 1, 1<<16 - 1, 1<<16 + 1, 1<<24 - 1, 1<<24 + 1} {
		for _, size := range []int{0, 1, unionInsertionMax, unionInsertionMax + 1, 300, 5000, 70000} {
			u := make([]unionEdge, 0, size)
			for len(u) < size {
				var orig int
				switch {
				case len(u) > 0 && r.Intn(3) == 0:
					orig = u[r.Intn(len(u))].orig // a repeat
				case r.Intn(50) == 0:
					orig = m - 1 // the largest index the source holds
				default:
					orig = r.Intn(m)
				}
				// Equal indices carry identical edges, as a round's
				// samples of one source edge do.
				u = append(u, unionEdge{orig: orig, e: graph.Edge{U: int32(orig % 97), V: int32(orig%89 + 97), W: float64(orig%13 + 1)}})
			}
			want := slices.Clone(u)
			slices.SortFunc(want, func(x, y unionEdge) int { return cmp.Compare(x.orig, y.orig) })
			sortUnion(u)
			if !slices.Equal(u, want) {
				t.Fatalf("m=%d size=%d: radix order differs from slices.SortFunc", m, size)
			}
		}
	}
}
