package stream

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

func TestPassCounting(t *testing.T) {
	g := graph.GNM(10, 20, graph.WeightConfig{}, 1)
	s := NewEdgeStream(g)
	if s.Passes() != 0 {
		t.Fatal("fresh stream has passes")
	}
	count := 0
	s.ForEach(func(int, graph.Edge) bool { count++; return true })
	if count != 20 || s.Passes() != 1 {
		t.Fatalf("count=%d passes=%d", count, s.Passes())
	}
	s.ForEach(func(int, graph.Edge) bool { return false }) // aborted pass still counts
	if s.Passes() != 2 {
		t.Fatalf("aborted pass not counted: %d", s.Passes())
	}
}

func TestStreamMetadata(t *testing.T) {
	g := graph.New(5)
	g.MustAddEdge(0, 1, 2)
	g.SetB(3, 4)
	s := NewEdgeStream(g)
	if s.N() != 5 || s.Len() != 1 || s.B(3) != 4 || s.TotalB() != 8 {
		t.Fatalf("metadata wrong: n=%d len=%d b3=%d B=%d", s.N(), s.Len(), s.B(3), s.TotalB())
	}
}

func TestStreamOrderStable(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	s := NewEdgeStream(g)
	var a, b []float64
	s.ForEach(func(_ int, e graph.Edge) bool { a = append(a, e.W); return true })
	s.ForEach(func(_ int, e graph.Edge) bool { b = append(b, e.W); return true })
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("stream replay differs")
		}
	}
}

func TestSpaceAccountant(t *testing.T) {
	a := NewSpaceAccountant()
	a.Alloc(100)
	a.Alloc(50)
	if a.Current() != 150 || a.Peak() != 150 {
		t.Fatalf("current=%d peak=%d", a.Current(), a.Peak())
	}
	a.Free(120)
	if a.Current() != 30 || a.Peak() != 150 {
		t.Fatalf("after free: current=%d peak=%d", a.Current(), a.Peak())
	}
	a.Alloc(10)
	if a.Peak() != 150 {
		t.Fatal("peak moved down")
	}
}

func TestSpaceAccountantUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	NewSpaceAccountant().Free(1)
}

func TestAccountantConcurrency(t *testing.T) {
	a := NewSpaceAccountant()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				a.Alloc(3)
				a.Free(3)
			}
		}()
	}
	wg.Wait()
	if a.Current() != 0 {
		t.Fatalf("leaked %d words", a.Current())
	}
	if a.Peak() < 3 || a.Peak() > 24 {
		t.Fatalf("peak %d outside [3,24]", a.Peak())
	}
}

// TestCatchReadError pins the converter the engine and the serving
// layer share: a *ReadError panic, bare or raised on a worker and
// wrapped in a *parallel.JobPanic, becomes the returned error; every
// other panic value is re-raised untouched.
func TestCatchReadError(t *testing.T) {
	re := &ReadError{Path: "x.rbg", Off: 24, Err: errors.New("corrupt")}
	if err := CatchReadError(func() error { panic(re) }); err != re {
		t.Errorf("bare panic: err = %v, want the ReadError", err)
	}
	if err := CatchReadError(func() error { panic(&parallel.JobPanic{Value: re}) }); err != re {
		t.Errorf("worker panic: err = %v, want the ReadError", err)
	}
	want := errors.New("plain")
	if err := CatchReadError(func() error { return want }); err != want {
		t.Errorf("returned error: err = %v, want %v", err, want)
	}
	other := &parallel.JobPanic{Value: "bug"}
	defer func() {
		if r := recover(); r != other {
			t.Errorf("recovered %v, want the original panic value re-raised", r)
		}
	}()
	CatchReadError(func() error { panic(other) })
	t.Error("a non-ReadError panic was swallowed")
}
