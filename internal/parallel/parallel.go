// Package parallel is the worker-pool substrate of the sharded
// sampling/sparsification pipeline (see DESIGN.md, "Parallel pipeline").
//
// The contract every user of this package relies on is *determinism*: the
// decomposition of work into jobs or shards is a function of the input
// only — never of the worker count — per-shard randomness is derived by
// splitting a parent generator sequentially before any goroutine starts,
// and results are merged in job order. Consequently a computation run
// with Workers: k is bit-identical to the same computation run with
// Workers: 1; the worker count changes wall-clock time and nothing else.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/xrand"
)

// Workers resolves a requested worker count: values > 0 are taken as-is,
// 0 selects runtime.GOMAXPROCS(0), and negative values select 1
// (sequential execution).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	if requested < 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// Range is a half-open shard [Lo, Hi) of an index space.
type Range struct{ Lo, Hi int }

// Len returns the number of indices in the shard.
func (r Range) Len() int { return r.Hi - r.Lo }

// Shards splits [0, n) into at most maxShards contiguous near-equal
// ranges (the first n mod s shards are one element longer). The
// decomposition is a pure function of n and maxShards; callers that need
// worker-independent output must therefore pass a maxShards that does not
// depend on the worker count, or use shard-local computations whose merge
// is associative over any contiguous partition (all callers in this
// repository are in the second category).
func Shards(n, maxShards int) []Range {
	if n <= 0 {
		return nil
	}
	if maxShards < 1 {
		maxShards = 1
	}
	if maxShards > n {
		maxShards = n
	}
	out := make([]Range, 0, maxShards)
	base := n / maxShards
	rem := n % maxShards
	lo := 0
	for s := 0; s < maxShards; s++ {
		hi := lo + base
		if s < rem {
			hi++
		}
		out = append(out, Range{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// JobPanic wraps a panic raised inside a parallel job: the original
// panic value plus the worker goroutine's stack at the panic site. Run
// re-raises it on the calling goroutine, so the faulting frame survives
// the pool boundary (a bare re-panic would point only at Run itself).
type JobPanic struct {
	Value any    // the job's original panic value
	Stack []byte // debug.Stack() captured on the worker
}

func (p *JobPanic) String() string {
	return fmt.Sprintf("parallel: job panicked: %v\n\nworker stack:\n%s", p.Value, p.Stack)
}

// Run executes fn(job) for every job in [0, jobs) on up to workers
// goroutines (resolved via Workers). With one worker the jobs run on the
// calling goroutine in increasing order — panics propagate untouched —
// with more, jobs are claimed from an atomic counter, so each runs
// exactly once but interleaving is unspecified; fn must not depend on
// cross-job ordering. The first panic in any job is re-raised on the
// calling goroutine as a *JobPanic after all workers stop.
func Run(workers, jobs int, fn func(job int)) {
	if jobs <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > jobs {
		workers = jobs
	}
	if workers <= 1 {
		for j := 0; j < jobs; j++ {
			fn(j)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var panicked atomic.Pointer[JobPanic]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &JobPanic{Value: r, Stack: debug.Stack()})
				}
			}()
			for panicked.Load() == nil {
				j := int(next.Add(1))
				if j >= jobs {
					return
				}
				fn(j)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}

// Map executes fn over [0, jobs) with Run and returns the results in job
// order — the ordered merge that keeps sharded computations bit-identical
// to their sequential counterparts.
func Map[T any](workers, jobs int, fn func(job int) T) []T {
	out := make([]T, jobs)
	Run(workers, jobs, func(j int) { out[j] = fn(j) })
	return out
}

// ForEachShard partitions [0, n) into one shard per resolved worker and
// runs fn(shardIndex, shard) for each. The partition depends on the
// worker count, so fn's effects must be independent of how [0, n) is cut
// into contiguous ranges (e.g. per-index work with an order-insensitive
// or index-keyed merge).
func ForEachShard(workers, n int, fn func(shard int, r Range)) {
	shards := Shards(n, Workers(workers))
	Run(workers, len(shards), func(s int) { fn(s, shards[s]) })
}

// SplitRNGs derives one child generator per job by splitting the parent
// sequentially (labels 0..jobs-1) before any worker starts. The children
// are therefore identical regardless of how many goroutines later consume
// them. The parent's state advances exactly jobs splits.
func SplitRNGs(parent *xrand.RNG, jobs int) []*xrand.RNG {
	out := make([]*xrand.RNG, jobs)
	for i := range out {
		out[i] = parent.Split(uint64(i))
	}
	return out
}
