package stream

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// These tests exist to be run under the race detector (the tier-1 gate
// runs `go test -race ./...`): the parallel pipeline drives the pass and
// space accountants from many goroutines at once, and the accountants
// must both stay data-race-free and land on exact totals.

func lineGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.MustAddEdge(v, v+1, 1)
	}
	return g
}

func TestEdgeStreamConcurrentForEach(t *testing.T) {
	g := lineGraph(256)
	s := NewEdgeStream(g)
	const goroutines = 16
	var visited atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.ForEach(func(_ int, _ graph.Edge) bool {
				visited.Add(1)
				return true
			})
		}()
	}
	wg.Wait()
	if s.Passes() != goroutines {
		t.Fatalf("passes = %d, want %d", s.Passes(), goroutines)
	}
	if want := int64(goroutines * g.M()); visited.Load() != want {
		t.Fatalf("visited %d edges, want %d", visited.Load(), want)
	}
}

func TestEdgeStreamForEachParallelCountsOnePass(t *testing.T) {
	g := lineGraph(1024)
	s := NewEdgeStream(g)
	for _, workers := range []int{1, 4, 0} {
		before := s.Passes()
		var hits = make([]atomic.Int64, g.M())
		s.ForEachParallel(workers, func(idx int, _ graph.Edge) {
			hits[idx].Add(1)
		})
		if s.Passes() != before+1 {
			t.Fatalf("workers=%d: pass count went %d -> %d, want +1", workers, before, s.Passes())
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: edge %d visited %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestEdgeStreamConcurrentMixedPasses(t *testing.T) {
	// Sequential and sharded passes racing on one stream: the pass
	// counter must come out exact.
	g := lineGraph(512)
	s := NewEdgeStream(g)
	const each = 8
	var wg sync.WaitGroup
	for i := 0; i < each; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			s.ForEach(func(_ int, _ graph.Edge) bool { return true })
		}()
		go func() {
			defer wg.Done()
			s.ForEachParallel(4, func(_ int, _ graph.Edge) {})
		}()
	}
	wg.Wait()
	if s.Passes() != 2*each {
		t.Fatalf("passes = %d, want %d", s.Passes(), 2*each)
	}
}

func TestSpaceAccountantConcurrent(t *testing.T) {
	a := NewSpaceAccountant()
	const goroutines = 32
	const iters = 500
	const words = 7
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				a.Alloc(words)
				a.Free(words)
			}
		}()
	}
	wg.Wait()
	if a.Current() != 0 {
		t.Fatalf("current = %d after balanced alloc/free", a.Current())
	}
	// Peak is at least one holder's allocation and at most everyone's.
	if p := a.Peak(); p < words || p > goroutines*words {
		t.Fatalf("peak = %d outside [%d, %d]", p, words, goroutines*words)
	}
}

func TestSpaceAccountantPeakMonotone(t *testing.T) {
	// Concurrent allocators with different sizes: peak must end >= the
	// largest single allocation and must never be lost to a CAS race.
	a := NewSpaceAccountant()
	var wg sync.WaitGroup
	sizes := []int{1, 10, 100, 1000}
	for _, sz := range sizes {
		wg.Add(1)
		go func(sz int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				a.Alloc(sz)
				a.Free(sz)
			}
		}(sz)
	}
	wg.Wait()
	if a.Peak() < 1000 {
		t.Fatalf("peak = %d, lost the largest allocation", a.Peak())
	}
	if a.Current() != 0 {
		t.Fatalf("current = %d", a.Current())
	}
}
