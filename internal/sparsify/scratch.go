package sparsify

import (
	"sync"

	"repro/internal/unionfind"
)

// Scratch is a reusable pool of working structures for the leveled
// sparsifier constructions. The lazy forest allocation of construction
// (one unionfind.New(n) per forest, per level, per weight class, per
// (use, level) job, per sampling round) is the dominant per-round
// garbage of the dual-primal solver's sampling pass; a Scratch lets
// every construction of a solve — and, through a session, every solve
// of a lifetime — draw Reset forests from one free list instead. A
// Reset forest is indistinguishable from a fresh one (n singleton sets,
// zero ranks), so wiring a Scratch through Config never changes any
// construction's output.
//
// Beyond forests, the pool recycles the rest of the builder lifecycle's
// containers: construction shells (level spines and stored-id rows),
// the emitted Deferred's item slices, and the refinement's reveal
// buffers. (The builder's own side-data slots stay with the builder,
// which a caller keeps per job across rounds; see
// DeferredBuilder.Reset.) Every getter hands back a logically empty
// structure (length-0 or fully-overwritten slice), so pooled and cold
// constructions are bit-identical.
//
// All getters and putters are safe for concurrent use: the per-class
// and per-job constructions of one sampling round run on the worker
// pool and share the solve's Scratch.
type Scratch struct {
	n    int
	mu   sync.Mutex
	free []*unionfind.UF

	shells []*construction
	items  [][]Item
	f64s   [][]float64
}

// NewScratch returns an empty pool of forests over n elements.
func NewScratch(n int) *Scratch { return &Scratch{n: n} }

// N returns the element count the pooled forests are sized for.
func (s *Scratch) N() int { return s.n }

// Get returns a forest of n singleton sets: a pooled one Reset in
// place, or a fresh one when the pool is empty.
func (s *Scratch) Get() *unionfind.UF {
	s.mu.Lock()
	var uf *unionfind.UF
	if last := len(s.free) - 1; last >= 0 {
		uf = s.free[last]
		s.free = s.free[:last]
	}
	s.mu.Unlock()
	if uf == nil {
		return unionfind.New(s.n)
	}
	uf.Reset()
	return uf
}

// Put returns forests to the pool. Only forests obtained from this
// Scratch (or sized exactly n) may come back; the caller must not use
// them afterwards.
func (s *Scratch) Put(ufs ...*unionfind.UF) {
	s.mu.Lock()
	s.free = append(s.free, ufs...)
	s.mu.Unlock()
}

// getShell pops a retired construction shell (nil when none is
// pooled); putShell retires one. The caller re-initializes every field
// except the retained spine/row capacity.
func (s *Scratch) getShell() *construction {
	s.mu.Lock()
	defer s.mu.Unlock()
	if last := len(s.shells) - 1; last >= 0 {
		c := s.shells[last]
		s.shells = s.shells[:last]
		return c
	}
	return nil
}

func (s *Scratch) putShell(c *construction) {
	s.mu.Lock()
	s.shells = append(s.shells, c)
	s.mu.Unlock()
}

// The slice getters return length-0 slices with whatever capacity a
// retired buffer carried.

func (s *Scratch) getItems(capHint int) []Item {
	s.mu.Lock()
	if last := len(s.items) - 1; last >= 0 {
		b := s.items[last]
		s.items = s.items[:last]
		s.mu.Unlock()
		return b[:0]
	}
	s.mu.Unlock()
	return make([]Item, 0, capHint)
}

func (s *Scratch) putItems(b []Item) {
	s.mu.Lock()
	s.items = append(s.items, b)
	s.mu.Unlock()
}

// getF64s returns a length-n float64 buffer whose every element the
// caller must overwrite before reading (reveal buffers are filled by a
// full-range shard sweep, so no clear happens here).
func (s *Scratch) getF64s(n int) []float64 {
	s.mu.Lock()
	for i := len(s.f64s) - 1; i >= 0; i-- {
		if cap(s.f64s[i]) >= n {
			b := s.f64s[i][:n]
			last := len(s.f64s) - 1
			s.f64s[i] = s.f64s[last]
			s.f64s = s.f64s[:last]
			s.mu.Unlock()
			return b
		}
	}
	s.mu.Unlock()
	return make([]float64, n)
}

func (s *Scratch) putF64s(b []float64) {
	s.mu.Lock()
	s.f64s = append(s.f64s, b)
	s.mu.Unlock()
}
