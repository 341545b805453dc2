package stream

// Tests of FileSource's read loop (readBlocks), where a sequential sweep
// decodes blocks ahead on helper goroutines: whatever the decoder count,
// the loop must deliver exactly what the inline loop delivers, stop where
// the consumer stops, raise a corrupt block's *ReadError only when it
// reaches that block, and leave no helper running when it returns.
// CI runs them with -race -count=10.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// aheadBlock is one delivered block: its base index and a copy of its
// edges.
type aheadBlock struct {
	base  int
	edges []graph.Edge
}

// aheadFile is one opened fixture file and the edges it holds.
type aheadFile struct {
	name string
	path string
	src  *FileSource
	ref  []graph.Edge
}

// aheadGen is the fixtures' edge stream: m edges over n vertices with
// varied weights (a multigraph, so m is not capped by n).
func aheadGen(t testing.TB, n, m int, seed uint64) *GenSource {
	t.Helper()
	g, err := NewGen(GenSpec{N: n, M: m, Weights: graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, Seed: seed, BMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// openAhead opens path behind mmap or pread and reads it in blocks of
// blockLen edges: an RBG2 file's frames must hold that many, while
// RBG1's block length is the reader's choice (BlockEdges), which the
// fixtures shrink so that many blocks stay cheap under the race
// detector.
func openAhead(t testing.TB, path string, noMmap bool, blockLen int) *FileSource {
	t.Helper()
	src, err := OpenBinaryWith(path, OpenOptions{NoMmap: noMmap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	if src.ver == 1 {
		src.blockLen, src.maxFrame = blockLen, min(blockLen, src.m)*binRecordSize
	}
	if src.blockLen != blockLen {
		t.Fatalf("%s reads in blocks of %d edges, want %d", path, src.blockLen, blockLen)
	}
	return src
}

// aheadFiles writes gen as RBG1 and as RBG2 (frames of blockLen edges)
// and opens each behind mmap and behind pread, in blocks of blockLen.
func aheadFiles(t testing.TB, gen *GenSource, blockLen int) []aheadFile {
	t.Helper()
	var ref []graph.Edge
	gen.Sweep(func(_ int, e graph.Edge) bool {
		ref = append(ref, e)
		return true
	})
	dir := t.TempDir()
	var out []aheadFile
	for _, codec := range []string{"rbg1", "rbg2"} {
		path := filepath.Join(dir, codec)
		var buf bytes.Buffer
		var err error
		if codec == "rbg1" {
			err = WriteBinary(&buf, gen)
		} else {
			err = writeBinary2(&buf, gen, blockLen)
		}
		if err == nil {
			err = os.WriteFile(path, buf.Bytes(), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, noMmap := range []bool{false, true} {
			src := openAhead(t, path, noMmap, blockLen)
			access := "mmap"
			if !src.Mapped() {
				access = "pread"
			}
			out = append(out, aheadFile{name: fmt.Sprintf("%s/%s/%d", codec, access, blockLen), path: path, src: src, ref: ref})
		}
	}
	return out
}

// wantBlocks is the block sequence any read of [lo, hi) must deliver:
// the file's blocks of blockLen edges, clipped to the range.
func wantBlocks(ref []graph.Edge, blockLen, lo, hi int) []aheadBlock {
	var out []aheadBlock
	for k := lo / blockLen; k*blockLen < hi && lo < hi; k++ {
		from, to := max(k*blockLen, lo), min((k+1)*blockLen, hi)
		out = append(out, aheadBlock{from, ref[from:to]})
	}
	return out
}

// sameBlocks reports whether two block sequences are equal, an empty
// one whether nil or not.
func sameBlocks(a, b []aheadBlock) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// readAll runs readBlocks(lo, hi, d) and returns the blocks delivered
// before the consumer stopped at block stopAt (-1: never) and the value
// the read panicked with, if any.
func readAll(src *FileSource, lo, hi, d, stopAt int) (got []aheadBlock, panicked any) {
	defer func() { panicked = recover() }()
	src.readBlocks(lo, hi, d, func(base int, edges []graph.Edge) bool {
		got = append(got, aheadBlock{base, append([]graph.Edge(nil), edges...)})
		return len(got)-1 != stopAt
	})
	return got, nil
}

// settleGoroutines fails t unless the goroutine count comes back to
// base: readBlocks has waited for its helpers, but a helper that has
// signalled may take a moment to exit.
func settleGoroutines(t testing.TB, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the sweep, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// The fixtures hold 9 full blocks and a partial tenth: aheadEdges in
// blocks of BlockEdges, the size a pass reads in, and smallEdges in
// blocks of smallBlock.
const (
	aheadEdges = 9*BlockEdges + 1234
	smallBlock = 64
	smallEdges = 9*smallBlock + 23
)

// testRanges returns the read ranges of the differential test over m
// edges in blocks of b: the whole range and ranges cut inside a block
// at either end or both; with more, also one-edge and empty ranges and
// 40 random ones drawn from seed.
func testRanges(m, b int, more bool, seed uint64) [][2]int {
	ranges := [][2]int{{0, m}, {17, m - 5}, {b - 1, b + 1}}
	if !more {
		return ranges
	}
	ranges = append(ranges, [2]int{1, m}, [2]int{b, 5 * b}, [2]int{17, 3*b + 5},
		[2]int{5*b + 10, 5*b + 20}, [2]int{m - 1, m}, [2]int{7, 7})
	r := xrand.New(seed)
	for i := 0; i < 40; i++ {
		lo := r.Intn(m)
		ranges = append(ranges, [2]int{lo, lo + 1 + r.Intn(m-lo)})
	}
	return ranges
}

// TestReadAheadMatchesInline holds every decoder count to the inline
// loop on files read in blocks of BlockEdges, the size a pass reads in,
// and, over many more ranges, on files of small blocks.
func TestReadAheadMatchesInline(t *testing.T) {
	files := aheadFiles(t, aheadGen(t, 300, aheadEdges, 3), BlockEdges)
	files = append(files, aheadFiles(t, aheadGen(t, 40, smallEdges, 3), smallBlock)...)
	for i, fl := range files {
		base := runtime.NumGoroutine()
		for _, rg := range testRanges(len(fl.ref), fl.src.blockLen, fl.src.blockLen == smallBlock, uint64(i)) {
			want := wantBlocks(fl.ref, fl.src.blockLen, rg[0], rg[1])
			inline, p := readAll(fl.src, rg[0], rg[1], 1, -1)
			if p != nil || !sameBlocks(inline, want) {
				t.Fatalf("%s [%d,%d): the inline loop delivered %d blocks (panic %v), want %d", fl.name, rg[0], rg[1], len(inline), p, len(want))
			}
			for d := 2; d <= maxReadAhead; d++ {
				got, p := readAll(fl.src, rg[0], rg[1], d, -1)
				if p != nil {
					t.Fatalf("%s [%d,%d) d=%d: panic %v", fl.name, rg[0], rg[1], d, p)
				}
				if !sameBlocks(got, inline) {
					t.Fatalf("%s [%d,%d) d=%d: delivered blocks differ from the inline loop's", fl.name, rg[0], rg[1], d)
				}
				settleGoroutines(t, base)
			}
		}
	}
}

func TestReadAheadAbortDeliversPrefix(t *testing.T) {
	files := aheadFiles(t, aheadGen(t, 40, smallEdges, 4), smallBlock)
	for _, fl := range files {
		want := wantBlocks(fl.ref, fl.src.blockLen, 0, len(fl.ref))
		base := runtime.NumGoroutine()
		for d := 1; d <= maxReadAhead; d++ {
			for stop := range want {
				got, p := readAll(fl.src, 0, len(fl.ref), d, stop)
				if p != nil || !sameBlocks(got, want[:stop+1]) {
					t.Fatalf("%s d=%d: abort at block %d delivered %d blocks (panic %v), want %d", fl.name, d, stop, len(got), p, stop+1)
				}
				settleGoroutines(t, base)
			}
		}
	}
}

// corruptBlock returns a copy of the file at fl.path with block k made
// undecodable, and the offset its *ReadError must carry: frame k's
// weight mode set to an unknown value in RBG2, or an RBG1 record in
// block k given equal endpoints.
func corruptBlock(t *testing.T, fl aheadFile, k int) (string, int64) {
	t.Helper()
	b, err := os.ReadFile(fl.path)
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	if fl.src.ver == 2 {
		off = fl.src.frameOff[k]
		b[off+8] = 0xee
	} else {
		off = fl.src.dataOff + int64(k*fl.src.blockLen+5)*binRecordSize
		copy(b[off+4:off+8], b[off:off+4])
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("corrupt%d", k))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, off
}

func TestReadAheadCorruptBlockPanicsWhenReached(t *testing.T) {
	files := aheadFiles(t, aheadGen(t, 40, smallEdges, 5), smallBlock)
	for _, fl := range files {
		want := wantBlocks(fl.ref, fl.src.blockLen, 0, len(fl.ref))
		for _, k := range []int{0, 1, 2, 5, len(want) - 1} {
			path, off := corruptBlock(t, fl, k)
			src := openAhead(t, path, !fl.src.Mapped(), smallBlock)
			base := runtime.NumGoroutine()
			for d := 1; d <= maxReadAhead; d++ {
				got, p := readAll(src, 0, len(fl.ref), d, -1)
				re, ok := p.(*ReadError)
				if !ok || re.Path != path || re.Off != off || re.Err == nil {
					t.Fatalf("%s block %d d=%d: panic %#v, want the block's *ReadError at offset %d", fl.name, k, d, p, off)
				}
				if !sameBlocks(got, want[:k]) {
					t.Fatalf("%s block %d d=%d: %d blocks delivered before the panic, want %d", fl.name, k, d, len(got), k)
				}
				if k > 0 {
					got, p := readAll(src, 0, len(fl.ref), d, k-1)
					if p != nil || !sameBlocks(got, want[:k]) {
						t.Fatalf("%s block %d d=%d: a consumer stopping at block %d got %d blocks and panic %v", fl.name, k, d, k-1, len(got), p)
					}
				}
				settleGoroutines(t, base)
			}
		}
	}
}

func TestReadAheadConsumerPanicStopsHelpers(t *testing.T) {
	files := aheadFiles(t, aheadGen(t, 40, smallEdges, 6), smallBlock)
	type boom struct{ at int }
	for _, fl := range files {
		base := runtime.NumGoroutine()
		for d := 1; d <= maxReadAhead; d++ {
			for _, at := range []int{0, 1, 3, 9} {
				var p any
				func() {
					defer func() { p = recover() }()
					blocks := 0
					fl.src.readBlocks(0, len(fl.ref), d, func(int, []graph.Edge) bool {
						if blocks == at {
							panic(boom{at})
						}
						blocks++
						return true
					})
				}()
				if p != (boom{at}) {
					t.Fatalf("%s d=%d: recovered %v, want the consumer's panic at block %d", fl.name, d, p, at)
				}
				settleGoroutines(t, base)
				// The next sweep starts from a ring no helper still writes.
				if got, p := readAll(fl.src, 0, len(fl.ref), d, -1); p != nil || len(got) != 10 {
					t.Fatalf("%s d=%d: sweep after a consumer panic delivered %d blocks (panic %v)", fl.name, d, len(got), p)
				}
			}
		}
	}
}

func TestReadAheadConcurrentSweeps(t *testing.T) {
	files := aheadFiles(t, aheadGen(t, 40, smallEdges, 7), smallBlock)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, fl := range files {
		want := wantBlocks(fl.ref, fl.src.blockLen, 0, len(fl.ref))
		base := runtime.NumGoroutine()
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					var got []aheadBlock
					SweepBlocks(fl.src, func(base int, edges []graph.Edge) bool {
						got = append(got, aheadBlock{base, append([]graph.Edge(nil), edges...)})
						return true
					})
					if !reflect.DeepEqual(got, want) {
						errs <- fmt.Errorf("%s: concurrent sweep %d of goroutine %d delivered different blocks", fl.name, i, g)
						return
					}
				}
			}()
		}
		// A sharded sweep of the same source alongside.
		hits := make([]int32, len(fl.ref))
		SweepBlocksParallel(fl.src, 3, func(base int, edges []graph.Edge) {
			for i := range edges {
				if edges[i] == fl.ref[base+i] {
					hits[base+i]++
				}
			}
		})
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("%s: sharded sweep matched edge %d %d times", fl.name, i, h)
			}
		}
		settleGoroutines(t, base)
	}
}

// TestReadAheadAllocationFlat checks that after a source's first sweep
// a sequential sweep allocates the same few hundred bytes whatever m
// is: no block buffer (64 KiB at BlockEdges) and nothing per block,
// which files of 10 and of 2 000 one-edge blocks would show.
func TestReadAheadAllocationFlat(t *testing.T) {
	// perSweep is the fewest bytes a sweep allocated over three rounds
	// of two: the runtime itself now and then allocates while starting
	// a helper (a goroutine or a thread), which only ever adds.
	perSweep := func(fl aheadFile, d int) uint64 {
		const sweeps = 2
		f := func(int, []graph.Edge) bool { return true }
		fl.src.readBlocks(0, len(fl.ref), d, f) // the source's first sweep at d
		least := uint64(math.MaxUint64)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < sweeps; i++ {
				fl.src.readBlocks(0, len(fl.ref), d, f)
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/sweeps)
		}
		return least
	}
	for _, fx := range []struct{ m, blockLen int }{{aheadEdges, BlockEdges}, {10, 1}, {2000, 1}} {
		for _, fl := range aheadFiles(t, aheadGen(t, 300, fx.m, 8), fx.blockLen) {
			for d := 1; d <= maxReadAhead; d++ {
				// The read, its hand-off channels and its helpers take
				// 144 B at d = 1 and about 1 KiB at d = 4.
				if got := perSweep(fl, d); got > 4<<10 {
					t.Fatalf("%s, %d edges, d=%d: a sweep allocated %d B, want at most 4 KiB", fl.name, fx.m, d, got)
				}
			}
		}
	}
}

// TestReadAheadStress delivers at least 100 000 blocks through
// four-decoder sweeps while the consumer dawdles at random, so helpers
// wait on full slots at random points, and checks every block. A
// quarter of the sweeps stop at a random block, and every eighth runs
// on a freshly opened source that is closed (unmapped) right after it.
func TestReadAheadStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const blockLen, blocks = 3, 500
	files := aheadFiles(t, aheadGen(t, 50, blockLen*blocks-1, 9), blockLen)
	r := xrand.New(43)
	base := runtime.NumGoroutine()
	var sink int
	delivered := 0
	for sweep := 0; delivered < 100_000; sweep++ {
		fl := files[sweep%len(files)]
		src := fl.src
		reopen := sweep%8 == 7
		if reopen {
			src = openAhead(t, fl.path, !fl.src.Mapped(), blockLen)
		}
		stopAt := blocks
		if r.Intn(4) == 0 {
			stopAt = r.Intn(blocks)
		}
		next, n := 0, 0
		ForEachBlocks(src, func(base int, edges []graph.Edge) bool {
			if base != next || len(edges) == 0 {
				t.Fatalf("%s sweep %d: block %d delivered at base %d with %d edges, want base %d", fl.name, sweep, n, base, len(edges), next)
			}
			if !reflect.DeepEqual(edges, fl.ref[base:base+len(edges)]) {
				t.Fatalf("%s sweep %d: block %d at base %d holds %v, the file's edges there are %v", fl.name, sweep, n, base, edges, fl.ref[base:base+len(edges)])
			}
			next = base + len(edges)
			switch r.Intn(8) {
			case 0:
				runtime.Gosched()
			case 1, 2:
				for i := r.Intn(2000); i > 0; i-- {
					sink += i
				}
			}
			n++
			return n <= stopAt
		})
		delivered += n
		if reopen {
			src.Close()
		}
	}
	settleGoroutines(t, base)
	_ = sink
}

// TestReadAheadCloseAfterSweep unmaps a source right after sweeps that
// stop at their first block, while the helpers still decode the blocks
// after it: a helper that outlived its sweep would read the unmapped
// file and crash the test binary.
func TestReadAheadCloseAfterSweep(t *testing.T) {
	gen := aheadGen(t, 300, aheadEdges, 10)
	path := filepath.Join(t.TempDir(), "edges.rbg2")
	if err := WriteBinaryFile2(path, gen); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		src, err := OpenBinary(path)
		if err != nil {
			t.Fatal(err)
		}
		if !src.Mapped() {
			src.Close()
			t.Skip("no mmap on this platform")
		}
		src.readBlocks(0, src.Len(), maxReadAhead, func(int, []graph.Edge) bool { return false })
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
