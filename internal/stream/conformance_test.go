package stream

// Conformance suite every Source backend must pass: pass counting
// (including the early-abort rule: an aborted sweep still counts one
// pass), replayability (every sweep enumerates the same (idx, edge)
// sequence), parallel/sequential equivalence for every worker count,
// static metadata consistency and the un-metered Sweep contract.

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/graph"
)

type idxEdge struct {
	idx int
	e   graph.Edge
}

func collect(sweep func(f func(idx int, e graph.Edge) bool)) []idxEdge {
	var out []idxEdge
	sweep(func(idx int, e graph.Edge) bool {
		out = append(out, idxEdge{idx, e})
		return true
	})
	return out
}

// runConformance exercises the full Source contract. mk must return a
// fresh source (zero passes consumed) on every call.
func runConformance(t *testing.T, mk func(t *testing.T) Source) {
	t.Helper()

	t.Run("fresh", func(t *testing.T) {
		s := mk(t)
		if s.Passes() != 0 {
			t.Fatalf("fresh source has %d passes", s.Passes())
		}
		if s.N() < 0 || s.Len() < 0 {
			t.Fatalf("negative size: n=%d m=%d", s.N(), s.Len())
		}
		sum := 0
		for v := 0; v < s.N(); v++ {
			if s.B(v) < 1 {
				t.Fatalf("b(%d) = %d < 1", v, s.B(v))
			}
			sum += s.B(v)
		}
		if sum != s.TotalB() {
			t.Fatalf("TotalB %d != Σ b = %d", s.TotalB(), sum)
		}
	})

	t.Run("enumeration", func(t *testing.T) {
		s := mk(t)
		ref := collect(s.ForEach)
		if s.Passes() != 1 {
			t.Fatalf("one ForEach consumed %d passes", s.Passes())
		}
		if len(ref) != s.Len() {
			t.Fatalf("ForEach yielded %d edges, Len says %d", len(ref), s.Len())
		}
		for i, ie := range ref {
			if ie.idx != i {
				t.Fatalf("position %d has idx %d (want dense indices)", i, ie.idx)
			}
			if i > 0 && ie.idx <= ref[i-1].idx {
				t.Fatalf("indices not strictly increasing at position %d", i)
			}
			if ie.e.U == ie.e.V || ie.e.U < 0 || int(ie.e.U) >= s.N() || ie.e.V < 0 || int(ie.e.V) >= s.N() {
				t.Fatalf("edge %d = %+v invalid for n=%d", ie.idx, ie.e, s.N())
			}
		}
	})

	t.Run("replayable", func(t *testing.T) {
		s := mk(t)
		a := collect(s.ForEach)
		b := collect(s.ForEach)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("two passes enumerated different sequences")
		}
		if s.Passes() != 2 {
			t.Fatalf("two passes counted as %d", s.Passes())
		}
	})

	t.Run("early-abort-counts-pass", func(t *testing.T) {
		s := mk(t)
		seen := 0
		s.ForEach(func(int, graph.Edge) bool {
			seen++
			return false
		})
		if s.Len() > 0 && seen != 1 {
			t.Fatalf("aborted pass visited %d edges, want 1", seen)
		}
		if s.Passes() != 1 {
			t.Fatalf("aborted sweep counted %d passes, want exactly 1", s.Passes())
		}
		// The abort must not poison the stream: the next pass replays all.
		if got := collect(s.ForEach); len(got) != s.Len() {
			t.Fatalf("pass after abort yielded %d of %d edges", len(got), s.Len())
		}
	})

	t.Run("sweep-unmetered", func(t *testing.T) {
		s := mk(t)
		a := collect(s.Sweep)
		if s.Passes() != 0 {
			t.Fatalf("raw Sweep advanced the pass counter to %d", s.Passes())
		}
		if b := collect(s.ForEach); !reflect.DeepEqual(a, b) {
			t.Fatal("Sweep and ForEach enumerate different sequences")
		}
	})

	t.Run("parallel-equivalence", func(t *testing.T) {
		s := mk(t)
		ref := collect(s.ForEach)
		byIdx := make(map[int]graph.Edge, len(ref))
		for _, ie := range ref {
			byIdx[ie.idx] = ie.e
		}
		for _, workers := range []int{1, 2, 3, 7, 0} {
			fresh := mk(t)
			var mu chan idxEdge = make(chan idxEdge, len(ref)+1)
			fresh.ForEachParallel(workers, func(idx int, e graph.Edge) {
				mu <- idxEdge{idx, e}
			})
			close(mu)
			if fresh.Passes() != 1 {
				t.Fatalf("workers=%d: parallel sweep counted %d passes", workers, fresh.Passes())
			}
			var got []idxEdge
			for ie := range mu {
				got = append(got, ie)
			}
			if len(got) != len(ref) {
				t.Fatalf("workers=%d: visited %d edges, want %d", workers, len(got), len(ref))
			}
			sort.Slice(got, func(i, j int) bool { return got[i].idx < got[j].idx })
			for i, ie := range got {
				if i > 0 && got[i-1].idx == ie.idx {
					t.Fatalf("workers=%d: idx %d visited twice", workers, ie.idx)
				}
				if want, ok := byIdx[ie.idx]; !ok || want != ie.e {
					t.Fatalf("workers=%d: idx %d has edge %+v, sequential %+v", workers, ie.idx, ie.e, want)
				}
			}
		}
	})

	t.Run("blocks-concatenate", func(t *testing.T) {
		s := mk(t)
		ref := collect(s.Sweep)
		var got []idxEdge
		ForEachBlocks(s, func(base int, edges []graph.Edge) bool {
			if len(edges) == 0 {
				t.Fatal("empty block delivered")
			}
			if len(edges) > BlockEdges {
				t.Fatalf("block of %d edges exceeds BlockEdges", len(edges))
			}
			for i := range edges {
				got = append(got, idxEdge{base + i, edges[i]})
			}
			return true
		})
		if s.Passes() != 1 {
			t.Fatalf("one block pass counted %d passes", s.Passes())
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatal("block pass does not concatenate to the per-edge sweep")
		}
		var raw []idxEdge
		SweepBlocks(s, func(base int, edges []graph.Edge) bool {
			for i := range edges {
				raw = append(raw, idxEdge{base + i, edges[i]})
			}
			return true
		})
		if s.Passes() != 1 {
			t.Fatalf("raw SweepBlocks advanced the pass counter to %d", s.Passes())
		}
		if !reflect.DeepEqual(raw, ref) {
			t.Fatal("SweepBlocks and Sweep enumerate different sequences")
		}
	})

	t.Run("blocks-early-abort", func(t *testing.T) {
		s := mk(t)
		blocks := 0
		ForEachBlocks(s, func(int, []graph.Edge) bool {
			blocks++
			return false
		})
		if s.Len() > 0 && blocks != 1 {
			t.Fatalf("aborted block pass delivered %d blocks, want 1", blocks)
		}
		if s.Passes() != 1 {
			t.Fatalf("aborted block pass counted %d passes, want exactly 1", s.Passes())
		}
		total := 0
		ForEachBlocks(s, func(_ int, edges []graph.Edge) bool {
			total += len(edges)
			return true
		})
		if total != s.Len() {
			t.Fatalf("block pass after abort yielded %d of %d edges", total, s.Len())
		}
	})

	t.Run("blocks-parallel-equivalence", func(t *testing.T) {
		s := mk(t)
		ref := collect(s.Sweep)
		byIdx := make(map[int]graph.Edge, len(ref))
		for _, ie := range ref {
			byIdx[ie.idx] = ie.e
		}
		for _, workers := range []int{1, 2, 3, 7, 0} {
			fresh := mk(t)
			ch := make(chan idxEdge, len(ref)+1)
			ForEachBlocksParallel(fresh, workers, func(base int, edges []graph.Edge) {
				for i := range edges {
					ch <- idxEdge{base + i, edges[i]}
				}
			})
			close(ch)
			if fresh.Passes() != 1 {
				t.Fatalf("workers=%d: parallel block pass counted %d passes", workers, fresh.Passes())
			}
			var got []idxEdge
			for ie := range ch {
				got = append(got, ie)
			}
			if len(got) != len(ref) {
				t.Fatalf("workers=%d: block pass visited %d edges, want %d", workers, len(got), len(ref))
			}
			sort.Slice(got, func(i, j int) bool { return got[i].idx < got[j].idx })
			for i, ie := range got {
				if i > 0 && got[i-1].idx == ie.idx {
					t.Fatalf("workers=%d: idx %d visited twice", workers, ie.idx)
				}
				if want, ok := byIdx[ie.idx]; !ok || want != ie.e {
					t.Fatalf("workers=%d: idx %d has edge %+v, sequential %+v", workers, ie.idx, ie.e, want)
				}
			}
		}
	})
}

// conformanceGraph is a small instance with parallel edges, varied
// weights and non-unit capacities.
func conformanceGraph() *graph.Graph {
	g := graph.GNM(23, 57, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 12}, 99)
	g.MustAddEdge(3, 4, 2.5)
	g.MustAddEdge(3, 4, 7.25) // parallel copy
	graph.WithRandomB(g, 3, false, 100)
	return g
}

func binFixture(t *testing.T, src Source) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.rbg")
	if err := WriteBinaryFile(path, src); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestConformanceEdgeStream(t *testing.T) {
	g := conformanceGraph()
	runConformance(t, func(t *testing.T) Source { return NewEdgeStream(g) })
}

func TestConformanceFileSource(t *testing.T) {
	path := binFixture(t, NewEdgeStream(conformanceGraph()))
	runConformance(t, func(t *testing.T) Source {
		src, err := OpenBinary(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { src.Close() })
		return src
	})
}

// multiFrameN is multiFrameGraph's vertex count: GNM caps m at the
// n(n-1)/2 simple edges, and 200 vertices hold 19 900.
const multiFrameN = 200

// multiFrameGraph is big enough that an RBG2 encoding spans three
// frames (and a block sweep three blocks); it fails t when GNM's cap
// would have cut it short.
func multiFrameGraph(t *testing.T) *graph.Graph {
	t.Helper()
	m := 2*bin2BlockLen + bin2BlockLen/2 + 17
	g := graph.GNM(multiFrameN, m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 12}, 99)
	if g.M() != m {
		t.Fatalf("multi-frame fixture has %d edges, want %d", g.M(), m)
	}
	graph.WithRandomB(g, 3, false, 100)
	return g
}

func bin2Fixture(t *testing.T, src Source) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.rbg2")
	if err := WriteBinaryFile2(path, src); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestConformanceFileSourceRBG2(t *testing.T) {
	path := bin2Fixture(t, NewEdgeStream(multiFrameGraph(t)))
	runConformance(t, func(t *testing.T) Source {
		src, err := OpenBinary(path)
		if err != nil {
			t.Fatal(err)
		}
		if src.ver != 2 {
			t.Fatalf("auto-detected version %d, want 2", src.ver)
		}
		t.Cleanup(func() { src.Close() })
		return src
	})
}

func TestConformanceFileSourceNoMmap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(string, Source) error
	}{
		{"rbg1", WriteBinaryFile},
		{"rbg2", WriteBinaryFile2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "edges.bin")
			if err := tc.write(path, NewEdgeStream(multiFrameGraph(t))); err != nil {
				t.Fatal(err)
			}
			runConformance(t, func(t *testing.T) Source {
				src, err := OpenBinaryWith(path, OpenOptions{NoMmap: true})
				if err != nil {
					t.Fatal(err)
				}
				if src.Mapped() {
					t.Fatal("NoMmap source is mapped")
				}
				t.Cleanup(func() { src.Close() })
				return src
			})
		})
	}
}

func TestConformanceGenSource(t *testing.T) {
	spec := GenSpec{N: 40, M: 3*genBlockEdges/2 + 17, // straddle a block boundary
		Weights: graph.WeightConfig{Mode: graph.UniformWeights, WMax: 9}, Seed: 5, BMax: 3}
	runConformance(t, func(t *testing.T) Source {
		src, err := NewGen(spec)
		if err != nil {
			t.Fatal(err)
		}
		return src
	})
}

func TestConformanceConcatSource(t *testing.T) {
	g := conformanceGraph()
	mkParts := func(t *testing.T) []Source {
		// Split g's edge list into two EdgeStream shards plus one
		// generator shard on the same vertex set and capacities.
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
		gen, err := NewGen(GenSpec{N: g.N(), M: 64, Weights: graph.WeightConfig{Mode: graph.UnitWeights}, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		// Concat requires matching capacities; wrap the generator's unit
		// capacities with g's via an in-memory copy.
		genG := Materialize(gen)
		for v := 0; v < g.N(); v++ {
			genG.SetB(v, g.B(v))
		}
		return []Source{NewEdgeStream(a), NewEdgeStream(b), NewEdgeStream(genG)}
	}
	runConformance(t, func(t *testing.T) Source {
		c, err := Concat(mkParts(t)...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

func TestConcatRejectsMismatches(t *testing.T) {
	a := graph.New(4)
	b := graph.New(5)
	if _, err := Concat(NewEdgeStream(a), NewEdgeStream(b)); err == nil {
		t.Fatal("vertex-count mismatch accepted")
	}
	c := graph.New(4)
	c.SetB(1, 3)
	if _, err := Concat(NewEdgeStream(a), NewEdgeStream(c)); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
	if _, err := Concat(); err == nil {
		t.Fatal("empty concat accepted")
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	g := conformanceGraph()
	src := NewEdgeStream(g)
	got := Materialize(src)
	if !reflect.DeepEqual(got.Edges(), g.Edges()) {
		t.Fatal("materialized edges differ")
	}
	for v := 0; v < g.N(); v++ {
		if got.B(v) != g.B(v) {
			t.Fatalf("capacity of %d differs", v)
		}
	}
	if src.Passes() != 1 {
		t.Fatalf("materialize consumed %d passes, want 1", src.Passes())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	g := conformanceGraph()
	path := binFixture(t, NewEdgeStream(g))
	src, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.N() != g.N() || src.Len() != g.M() || src.TotalB() != g.TotalB() {
		t.Fatalf("header mismatch: n=%d m=%d B=%d", src.N(), src.Len(), src.TotalB())
	}
	got := Materialize(src)
	if !reflect.DeepEqual(got.Edges(), g.Edges()) {
		t.Fatal("binary round trip changed the edge list")
	}
	for v := 0; v < g.N(); v++ {
		if got.B(v) != g.B(v) {
			t.Fatalf("capacity of %d differs after round trip", v)
		}
	}
}

func TestBinaryUnitCapacitiesOmitTable(t *testing.T) {
	g := graph.GNM(10, 20, graph.WeightConfig{}, 3)
	path := binFixture(t, NewEdgeStream(g))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(24 + 16*g.M()); fi.Size() != want {
		t.Fatalf("unit-capacity file is %d bytes, want %d (no capacity table)", fi.Size(), want)
	}
	src, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.TotalB() != g.N() {
		t.Fatalf("TotalB %d, want %d", src.TotalB(), g.N())
	}
}

// exactGNM is graph.GNM that fails the test unless the graph has the m
// edges asked for (n vertices hold at most n(n-1)/2).
func exactGNM(t *testing.T, n, m int, wc graph.WeightConfig, seed uint64) *graph.Graph {
	t.Helper()
	g := graph.GNM(n, m, wc, seed)
	if g.M() != m {
		t.Fatalf("fixture has %d edges, want %d", g.M(), m)
	}
	return g
}

// TestBinary2RoundTrip round-trips instances whose frames use each
// weight mode; the multi-frame ones cross frame boundaries in every
// mode.
func TestBinary2RoundTrip(t *testing.T) {
	// Every weight 2.5: the constant-weight mode.
	constW := graph.New(multiFrameN)
	for _, e := range exactGNM(t, multiFrameN, 2*bin2BlockLen+17, graph.WeightConfig{}, 8).Edges() {
		constW.MustAddEdge(int(e.U), int(e.V), 2.5)
	}
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		mode   byte // the weight mode of every frame
		frames int
	}{
		{"small-caps", conformanceGraph(), 2, 1},
		{"multi-frame", multiFrameGraph(t), 3, 3},
		{"unit-weights", exactGNM(t, 100, bin2BlockLen+100, graph.WeightConfig{}, 7), 0, 2},
		{"const-weights", constW, 1, 3},
		{"dict-weights", exactGNM(t, multiFrameN, 2*bin2BlockLen+17, graph.WeightConfig{Mode: graph.PowersOf}, 9), 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := bin2Fixture(t, NewEdgeStream(tc.g))
			src, err := OpenBinary(path)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			if src.N() != tc.g.N() || src.Len() != tc.g.M() || src.TotalB() != tc.g.TotalB() {
				t.Fatalf("header mismatch: n=%d m=%d B=%d", src.N(), src.Len(), src.TotalB())
			}
			if got := len(src.frameOff) - 1; got != tc.frames {
				t.Fatalf("%d frames, want %d", got, tc.frames)
			}
			for k := 0; k < tc.frames; k++ {
				// A frame is an 8-byte header, then the mode byte.
				head, err := src.bytesAt(src.frameOff[k], 9, make([]byte, 9))
				if err != nil {
					t.Fatal(err)
				}
				if head[8] != tc.mode {
					t.Fatalf("frame %d has weight mode %d, want %d", k, head[8], tc.mode)
				}
			}
			got := Materialize(src)
			if !reflect.DeepEqual(got.Edges(), tc.g.Edges()) {
				t.Fatal("RBG2 round trip changed the edge list")
			}
			for v := 0; v < tc.g.N(); v++ {
				if got.B(v) != tc.g.B(v) {
					t.Fatalf("capacity of %d differs after round trip", v)
				}
			}
		})
	}
}

func TestBinary2CompressionRatio(t *testing.T) {
	// Unit weights are the common out-of-core case (E13/E15 regime):
	// the frame spends ~2 varint endpoints and zero weight bytes per
	// edge, which must come in well under RBG1's flat 16 bytes.
	g := graph.GNM(5000, 3*bin2BlockLen, graph.WeightConfig{}, 11)
	dir := t.TempDir()
	p1 := filepath.Join(dir, "g.rbg")
	p2 := filepath.Join(dir, "g.rbg2")
	if err := WriteBinaryFile(p1, NewEdgeStream(g)); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryFile2(p2, NewEdgeStream(g)); err != nil {
		t.Fatal(err)
	}
	fi1, err := os.Stat(p1)
	if err != nil {
		t.Fatal(err)
	}
	fi2, err := os.Stat(p2)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() > fi1.Size()*7/10 {
		t.Fatalf("RBG2 is %d bytes vs RBG1 %d — want >= 30%% smaller", fi2.Size(), fi1.Size())
	}
}

// TestWriteBinarySmallAllocation checks that both writers size their
// buffers to the instance: a 320-edge write allocates under 64 KiB per
// call, where the buffer for the largest files alone is 256 KiB.
func TestWriteBinarySmallAllocation(t *testing.T) {
	g := graph.GNM(48, 320, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 17)
	graph.WithRandomB(g, 3, false, 18)
	for _, tc := range []struct {
		name  string
		write func(io.Writer, Source) error
	}{
		{"rbg1", WriteBinary},
		{"rbg2", WriteBinary2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := NewEdgeStream(g)
			const calls = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				if err := tc.write(io.Discard, src); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			per := (after.TotalAlloc - before.TotalAlloc) / calls
			t.Logf("writing %d edges allocated %d B per call", g.M(), per)
			if per >= 64<<10 {
				t.Fatalf("writing %d edges allocated %d B per call, want < 64 KiB", g.M(), per)
			}
		})
	}
}

func TestOpenBinary2RejectsCorruption(t *testing.T) {
	path := bin2Fixture(t, NewEdgeStream(multiFrameGraph(t)))
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangle := func(name string, f func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			bad := f(append([]byte(nil), valid...))
			p := filepath.Join(t.TempDir(), "bad.rbg2")
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			src, err := OpenBinaryWith(p, OpenOptions{NoMmap: true})
			if err != nil {
				return // rejected at open: fine
			}
			defer src.Close()
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("corrupt frame swept without a typed panic")
				}
				if _, ok := r.(*ReadError); !ok {
					t.Fatalf("sweep panicked with %T, want *ReadError", r)
				}
			}()
			src.Sweep(func(int, graph.Edge) bool { return true })
		})
	}
	mangle("truncated-half", func(b []byte) []byte { return b[:len(b)/2] })
	mangle("truncated-trailer", func(b []byte) []byte { return b[:len(b)-4] })
	mangle("bad-trailer-magic", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
	mangle("bad-block-len", func(b []byte) []byte {
		// blockLen is a u32 at offset 24; zero it entirely.
		for i := 24; i < 28; i++ {
			b[i] = 0
		}
		return b
	})
	mangle("frame-corrupt", func(b []byte) []byte {
		// Flip a byte in the first frame's payload, past the capacity
		// table and the 8-byte frame header.
		b[bin2HeaderSize+4*multiFrameN+20] ^= 0xff
		return b
	})
	mangle("huge-m", func(b []byte) []byte {
		for i := 16; i < 24; i++ {
			b[i] = 0xff
		}
		return b
	})
}

// TestFileSourceReadErrorTyped checks satellite behavior: an I/O
// failure mid-solve surfaces as a typed *ReadError panic, not a bare
// fmt panic (the engine converts it to an error; see the engine tests).
func TestFileSourceReadErrorTyped(t *testing.T) {
	path := binFixture(t, NewEdgeStream(conformanceGraph()))
	src, err := OpenBinaryWith(path, OpenOptions{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// Truncate the file underneath the open handle: the next sweep's
	// ReadAt fails with io.EOF territory errors.
	if err := os.Truncate(path, 30); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		re, ok := r.(*ReadError)
		if !ok {
			t.Fatalf("sweep panicked with %T (%v), want *ReadError", r, r)
		}
		if re.Path != path || re.Err == nil {
			t.Fatalf("ReadError missing context: %+v", re)
		}
	}()
	src.Sweep(func(int, graph.Edge) bool { return true })
}

func TestOpenBinaryRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.rbg")
	if err := os.WriteFile(path, []byte("not a graph at all, sorry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if src, err := OpenBinary(path); err == nil {
		src.Close()
		t.Fatal("garbage accepted as RBG1")
	}
}
