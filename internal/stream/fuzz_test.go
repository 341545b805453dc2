package stream

// Fuzzing for the binary codecs: any byte string, opened as an RBG
// file, must either be rejected at open, or produce a source whose
// sweeps and lookups deliver only valid edges — with every failure a
// typed *ReadError, never an index-out-of-range or an allocation blowup
// driven by a hostile header. Seeds cover the malformed-spec corpus the
// serving layer rejects (garbage, bad magic, empty), valid files of
// both versions, and structured corruptions of each section (header,
// capacity table, frames, index, trailer).

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// fuzzEnumerate sweeps src, validating every delivered edge, and
// reports the edges seen plus whether the sweep completed (false: a
// typed ReadError cut it short — acceptable for corrupt input).
func fuzzEnumerate(t *testing.T, src *FileSource) (edges []graph.Edge, complete bool) {
	t.Helper()
	complete = true
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*ReadError); !ok {
					panic(r) // anything untyped is the bug we're hunting
				}
				complete = false
			}
		}()
		next := 0
		src.Sweep(func(idx int, e graph.Edge) bool {
			if idx != next {
				t.Fatalf("sweep index %d, want %d", idx, next)
			}
			if e.U < 0 || e.V < 0 || int(e.U) >= src.N() || int(e.V) >= src.N() || e.U == e.V {
				t.Fatalf("sweep delivered invalid edge %+v for n=%d", e, src.N())
			}
			next++
			edges = append(edges, e)
			return true
		})
		if next != src.Len() {
			t.Fatalf("complete sweep delivered %d of %d edges", next, src.Len())
		}
	}()
	return edges, complete
}

func FuzzOpenBinary(f *testing.F) {
	// The serving layer's byte-level malformed cases.
	f.Add([]byte{})
	f.Add([]byte("!!!"))
	f.Add([]byte("not an rbg1 file at all......"))
	f.Add([]byte("not a graph at all, sorry"))
	// Valid files of both versions, with and without capacities.
	g := graph.GNM(23, 57, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 12}, 99)
	graph.WithRandomB(g, 3, false, 100)
	unit := graph.GNM(16, 40, graph.WeightConfig{}, 7)
	for _, src := range []Source{NewEdgeStream(g), NewEdgeStream(unit)} {
		var b1, b2 bytes.Buffer
		if err := WriteBinary(&b1, src); err != nil {
			f.Fatal(err)
		}
		if err := WriteBinary2(&b2, src); err != nil {
			f.Fatal(err)
		}
		for _, valid := range [][]byte{b1.Bytes(), b2.Bytes()} {
			f.Add(valid)
			f.Add(valid[:len(valid)/2]) // truncated
			f.Add(valid[:len(valid)-3])
			for _, off := range []int{4, 8, 16, 24, len(valid) / 2, len(valid) - 9} {
				mut := append([]byte(nil), valid...)
				mut[off] ^= 0xff
				f.Add(mut)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.rbg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		pread, err := OpenBinaryWith(path, OpenOptions{NoMmap: true})
		if err != nil {
			// Rejected at open: the mmap path must agree.
			if m, merr := OpenBinary(path); merr == nil {
				m.Close()
				t.Fatal("mmap open accepted what pread open rejected")
			}
			return
		}
		defer pread.Close()
		got, complete := fuzzEnumerate(t, pread)
		// The two access paths decode the same bytes: same edges, same
		// completion status.
		mapped, err := OpenBinary(path)
		if err != nil {
			t.Fatalf("pread open accepted what default open rejected: %v", err)
		}
		defer mapped.Close()
		got2, complete2 := fuzzEnumerate(t, mapped)
		if complete != complete2 || len(got) != len(got2) {
			t.Fatalf("access paths disagree: pread (%d edges, complete=%v) vs mapped (%d, %v)",
				len(got), complete, len(got2), complete2)
		}
		for i := range got {
			if got[i] != got2[i] {
				t.Fatalf("edge %d differs between access paths: %+v vs %+v", i, got[i], got2[i])
			}
		}
	})
}
