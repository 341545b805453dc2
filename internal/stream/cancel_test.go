package stream

// The context guard (Cancellable) around every backend: with a live
// context it must be invisible — the full conformance suite, the same
// (idx, edge) sequences, the wrapped source's pass meter — and with a
// done context, sequential sweeps stop at the next block boundary while
// still charging their pass, and parallel sweeps run to completion.

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

type guardBackend struct {
	name  string
	dense bool
	mk    func(t *testing.T) Source
}

// guardBackends builds every backend over instances that span several
// blocks, so a block boundary falls inside each sweep.
func guardBackends(t *testing.T) []guardBackend {
	g := graph.GNM(200, 2*BlockEdges+BlockEdges/2+17, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 12}, 99)
	graph.WithRandomB(g, 3, false, 100)
	open := func(path string) func(t *testing.T) Source {
		return func(t *testing.T) Source {
			src, err := OpenBinary(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { src.Close() })
			return src
		}
	}
	rbg1 := binFixture(t, NewEdgeStream(g))
	rbg2 := bin2Fixture(t, NewEdgeStream(g))
	half := g.M() / 2
	a, b := graph.New(g.N()), graph.New(g.N())
	for v := 0; v < g.N(); v++ {
		a.SetB(v, g.B(v))
		b.SetB(v, g.B(v))
	}
	for i, e := range g.Edges() {
		dst := a
		if i >= half {
			dst = b
		}
		dst.MustAddEdge(int(e.U), int(e.V), e.W)
	}
	return []guardBackend{
		{"EdgeStream", true, func(*testing.T) Source { return NewEdgeStream(g) }},
		{"FileSource", true, open(rbg1)},
		{"FileSourceRBG2", true, open(rbg2)},
		{"GenSource", true, func(t *testing.T) Source {
			src, err := NewGen(GenSpec{N: 40, M: 3*genBlockEdges/2 + 17,
				Weights: graph.WeightConfig{Mode: graph.UniformWeights, WMax: 9}, Seed: 5, BMax: 3})
			if err != nil {
				t.Fatal(err)
			}
			return src
		}},
		{"ConcatSource", true, func(t *testing.T) Source {
			c, err := Concat(NewEdgeStream(a), NewEdgeStream(b))
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"Filtered", false, func(*testing.T) Source {
			return NewFilter(NewEdgeStream(g), func(_ int, e graph.Edge) bool { return e.W >= 4 })
		}},
	}
}

func TestConformanceCancellable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, bk := range guardBackends(t) {
		t.Run(bk.name, func(t *testing.T) {
			runConformance(t, func(t *testing.T) Source { return Cancellable(ctx, bk.mk(t)) }, bk.dense)
		})
	}
}

// TestCancellableLiveForwardsMeters pins that a live guard changes
// nothing: every sweep form enumerates the wrapped source's sequence,
// metered forms charge the wrapped source exactly one pass, and
// un-metered forms charge nothing.
func TestCancellableLiveForwardsMeters(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, bk := range guardBackends(t) {
		t.Run(bk.name, func(t *testing.T) {
			inner := bk.mk(t)
			ref := collect(bk.mk(t).Sweep)
			g := Cancellable(ctx, inner)
			blocks := func(sweep func(func(int, []graph.Edge) bool)) func(func(int, graph.Edge) bool) {
				return func(f func(int, graph.Edge) bool) { sweep(eachEdge(f)) }
			}
			for _, sw := range []struct {
				name    string
				sweep   func(f func(idx int, e graph.Edge) bool)
				metered bool
			}{
				{"ForEach", g.ForEach, true},
				{"Sweep", g.Sweep, false},
				{"ForEachBlocks", blocks(func(f func(int, []graph.Edge) bool) { ForEachBlocks(g, f) }), true},
				{"SweepBlocks", blocks(func(f func(int, []graph.Edge) bool) { SweepBlocks(g, f) }), false},
			} {
				before := inner.Passes()
				if got := collect(sw.sweep); !reflect.DeepEqual(got, ref) {
					t.Errorf("%s: guarded sequence differs from the wrapped source's", sw.name)
				}
				want := before
				if sw.metered {
					want++
				}
				if inner.Passes() != want || g.Passes() != want {
					t.Errorf("%s: passes inner=%d guard=%d, want %d", sw.name, inner.Passes(), g.Passes(), want)
				}
			}
			for _, sw := range []struct {
				name    string
				sweep   func(workers int, f func(base int, edges []graph.Edge))
				metered bool
			}{
				{"ForEachParallel", func(w int, f func(int, []graph.Edge)) {
					g.ForEachParallel(w, func(idx int, e graph.Edge) { f(idx, []graph.Edge{e}) })
				}, true},
				{"SweepParallel", func(w int, f func(int, []graph.Edge)) {
					g.SweepParallel(w, func(idx int, e graph.Edge) { f(idx, []graph.Edge{e}) })
				}, false},
				{"ForEachBlocksParallel", func(w int, f func(int, []graph.Edge)) { ForEachBlocksParallel(g, w, f) }, true},
				{"SweepBlocksParallel", func(w int, f func(int, []graph.Edge)) { SweepBlocksParallel(g, w, f) }, false},
			} {
				before := inner.Passes()
				var edges atomic.Int64
				sw.sweep(3, func(_ int, blk []graph.Edge) { edges.Add(int64(len(blk))) })
				if int(edges.Load()) != len(ref) {
					t.Errorf("%s: delivered %d edges, want %d", sw.name, edges.Load(), len(ref))
				}
				want := before
				if sw.metered {
					want++
				}
				if inner.Passes() != want || g.Passes() != want {
					t.Errorf("%s: passes inner=%d guard=%d, want %d", sw.name, inner.Passes(), g.Passes(), want)
				}
			}
		})
	}
}

// TestCancellableCancelled pins the abort contract: a sequential sweep
// whose context is cancelled mid-block finishes that block and stops
// at the next boundary, a sweep under an already-cancelled context
// delivers nothing, each metered one still charges exactly one pass,
// and parallel sweeps ignore the guard and run to completion.
func TestCancellableCancelled(t *testing.T) {
	for _, bk := range guardBackends(t) {
		t.Run(bk.name, func(t *testing.T) {
			inner := bk.mk(t)
			first := 0
			SweepBlocks(inner, func(_ int, edges []graph.Edge) bool {
				first = len(edges)
				return false
			})
			if first == 0 || first >= inner.Len() {
				t.Fatalf("first block holds %d of %d edges; the instance must span blocks", first, inner.Len())
			}

			ctx, cancel := context.WithCancel(context.Background())
			g := Cancellable(ctx, inner)
			delivered := 0
			g.ForEach(func(int, graph.Edge) bool {
				delivered++
				cancel()
				return true
			})
			if delivered != first || inner.Passes() != 1 {
				t.Errorf("cancelled mid-block: delivered %d edges (first block %d), passes %d, want 1",
					delivered, first, inner.Passes())
			}

			blocks := 0
			ForEachBlocks(g, func(int, []graph.Edge) bool { blocks++; return true })
			SweepBlocks(g, func(int, []graph.Edge) bool { blocks++; return true })
			g.Sweep(func(int, graph.Edge) bool { blocks++; return true })
			if blocks != 0 || inner.Passes() != 2 {
				t.Errorf("already cancelled: delivered %d, passes %d, want 0 and 2", blocks, inner.Passes())
			}

			var edges atomic.Int64
			g.ForEachParallel(3, func(int, graph.Edge) { edges.Add(1) })
			ForEachBlocksParallel(g, 3, func(_ int, blk []graph.Edge) { edges.Add(int64(len(blk))) })
			if int(edges.Load()) != 2*inner.Len() || inner.Passes() != 4 {
				t.Errorf("parallel sweeps under a cancelled context: %d edges, passes %d, want %d and 4",
					edges.Load(), inner.Passes(), 2*inner.Len())
			}
		})
	}
}

func TestCancellableBackgroundIsIdentity(t *testing.T) {
	src := NewEdgeStream(conformanceGraph())
	if got := Cancellable(context.Background(), src); got != Source(src) {
		t.Fatalf("Cancellable(Background) = %T, want the source itself", got)
	}
}
