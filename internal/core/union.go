package core

import (
	"math/bits"

	"repro/internal/graph"
)

// unionEdge is one sampled edge of a round's union, under its index in
// the source stream.
type unionEdge struct {
	orig int
	e    graph.Edge
}

// unionInsertionMax is the bucket size at and below which sortUnion
// finishes with an insertion sort instead of another radix digit.
const unionInsertionMax = 32

// sortUnion sorts u by source index in place, in time linear in len(u)
// for indices of a fixed width: an MSD radix sort (American flag sort)
// over 8-bit digits from the highest significant bit of the largest
// index down. It is unstable, which is safe here: equal indices carry
// identical edges, so every order among them is the same slice.
func sortUnion(u []unionEdge) {
	top := 0
	for i := range u {
		top |= u[i].orig
	}
	radixUnion(u, max(bits.Len(uint(top))-8, 0))
}

// radixUnion sorts u, whose indices agree on every bit above
// shift+8, by the digit at shift and then recursively within each
// digit's bucket.
func radixUnion(u []unionEdge, shift int) {
	if len(u) <= unionInsertionMax {
		for i := 1; i < len(u); i++ {
			x := u[i]
			j := i
			for ; j > 0 && u[j-1].orig > x.orig; j-- {
				u[j] = u[j-1]
			}
			u[j] = x
		}
		return
	}
	var next, end [256]int
	for i := range u {
		end[byte(u[i].orig>>shift)]++
	}
	sum := 0
	for d, c := range end {
		next[d] = sum
		sum += c
		end[d] = sum
	}
	// Cycle every element into its bucket: take the first unplaced
	// element of bucket d and swap it along until one that belongs to d
	// comes back.
	for d := range next {
		for next[d] < end[d] {
			x := u[next[d]]
			for b := byte(x.orig >> shift); int(b) != d; b = byte(x.orig >> shift) {
				u[next[b]], x = x, u[next[b]]
				next[b]++
			}
			u[next[d]] = x
			next[d]++
		}
	}
	if shift == 0 {
		return
	}
	lo := 0
	for _, hi := range end {
		if hi-lo > 1 {
			radixUnion(u[lo:hi], max(shift-8, 0))
		}
		lo = hi
	}
}
