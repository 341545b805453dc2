package engine

// The scratch arena of a solve session. A cold solve allocates every
// working buffer from the Go heap and drops it on the floor at Finish;
// a *session* (see Session) keeps the same Algorithm alive across
// solves, and the arena is where the session parks the capacity those
// buffers occupied between runs. The distinction the accountant cannot
// see on its own is made explicit here: the SpaceAccountant meters
// *live* words — what the algorithm semantically holds right now, the
// quantity the paper's space bounds constrain — while the arena's
// RetainedWords is *retained capacity* — heap the process keeps warm so
// the next run does not pay allocation again. Retained capacity never
// touches the accountant: a reused solve charges exactly the words a
// cold solve charges, which is what keeps reused Stats.PeakWords
// bit-identical to cold ones.
//
// The getter's contract is "logically fresh": a returned buffer has
// the requested length and is zeroed, whether it came from the free
// pool or from make, so an algorithm written against the arena cannot
// observe whether it is the first run of a session or the hundredth.
// Buffers are handed back wholesale: the session calls Reclaim between
// runs, which returns every buffer lent since the last Reclaim to the
// free pool. Arenas are not safe for concurrent use; a session runs
// one solve at a time, which is the only discipline the engine needs.

// Arena is the per-session scratch allocator: a free list of []int
// buffers plus the list of those lent since the last Reclaim. The zero
// value is an empty arena.
type Arena struct {
	free [][]int
	lent [][]int
}

// Ints returns a zeroed []int of length n. It pops the smallest retained
// buffer whose capacity fits (best fit keeps the pool serving mixed
// sizes from oversupplying small requests with huge buffers), or makes
// one when none fits, and records it as lent.
func (a *Arena) Ints(n int) []int {
	best := -1
	for i, b := range a.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(a.free[best])) {
			best = i
		}
	}
	var buf []int
	if best >= 0 {
		last := len(a.free) - 1
		buf = a.free[best][:n]
		a.free[best] = a.free[last]
		a.free = a.free[:last]
		clear(buf)
	} else {
		buf = make([]int, n)
	}
	a.lent = append(a.lent, buf)
	return buf
}

// Reclaim returns every buffer lent since the last Reclaim to the free
// pool. The session calls it between runs; calling it while a lent
// buffer is still in use hands that memory to the next run, so only the
// session — which knows no run is in flight — may call it.
func (a *Arena) Reclaim() {
	a.free = append(a.free, a.lent...)
	a.lent = a.lent[:0]
}

// RetainedWords reports the arena's retained capacity in 64-bit words.
// This is the observability side of the arena/accountant split: it is
// what the process keeps warm between runs, NOT part of any run's
// metered live space.
func (a *Arena) RetainedWords() int {
	w := 0
	for _, b := range a.free {
		w += cap(b)
	}
	for _, b := range a.lent {
		w += cap(b)
	}
	return w
}
