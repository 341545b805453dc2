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
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
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

// decodeFramePayloadRef is decodeFramePayload as it read before its
// endpoint varints had a fast path, one binary.Uvarint call per varint:
// the reference FuzzDecodeFramePayload holds the decoder to.
func decodeFramePayloadRef(p []byte, count, n int, out []graph.Edge) ([]graph.Edge, error) {
	if len(p) < 1 {
		return nil, fmt.Errorf("empty frame payload")
	}
	mode := p[0]
	p = p[1:]
	var constW float64
	var dict []float64
	switch mode {
	case 0:
		constW = 1
	case 1:
		if len(p) < 8 {
			return nil, fmt.Errorf("short const-weight header")
		}
		constW = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
	case 2:
		if len(p) < 1 {
			return nil, fmt.Errorf("short dict header")
		}
		dictLen := int(p[0])
		p = p[1:]
		if dictLen < 1 || len(p) < 8*dictLen {
			return nil, fmt.Errorf("short weight dict (%d entries, %d bytes left)", dictLen, len(p))
		}
		dict = make([]float64, dictLen)
		for i := range dict {
			dict[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
		p = p[8*dictLen:]
	case 3:
	default:
		return nil, fmt.Errorf("unknown weight mode %d", mode)
	}
	out = out[:count]
	prevU := int64(0)
	for i := 0; i < count; i++ {
		du, sz := binary.Uvarint(p)
		if sz <= 0 {
			return nil, fmt.Errorf("truncated endpoint varint at edge %d", i)
		}
		p = p[sz:]
		v64, sz := binary.Uvarint(p)
		if sz <= 0 {
			return nil, fmt.Errorf("truncated endpoint varint at edge %d", i)
		}
		p = p[sz:]
		u := prevU + unzigzag(du)
		prevU = u
		if u < 0 || u >= int64(n) || v64 >= uint64(n) || u == int64(v64) {
			return nil, fmt.Errorf("edge %d endpoints (%d, %d) invalid for n=%d", i, u, v64, n)
		}
		out[i].U = int32(u)
		out[i].V = int32(v64)
	}
	switch mode {
	case 0, 1:
		for i := range out {
			out[i].W = constW
		}
	case 2:
		if len(p) < count {
			return nil, fmt.Errorf("short dict-index section: %d bytes for %d edges", len(p), count)
		}
		for i := range out {
			di := int(p[i])
			if di >= len(dict) {
				return nil, fmt.Errorf("edge %d dict index %d out of range [0,%d)", i, di, len(dict))
			}
			out[i].W = dict[di]
		}
		p = p[count:]
	case 3:
		if len(p) < 8*count {
			return nil, fmt.Errorf("short raw-weight section: %d bytes for %d edges", len(p), count)
		}
		for i := range out {
			out[i].W = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
		p = p[8*count:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after frame payload", len(p))
	}
	return out, nil
}

// FuzzDecodeFramePayload holds decodeFramePayload to the reference
// decoder on arbitrary payload bytes, edge counts and vertex counts: the
// same edges, bit for bit, or the same error.
func FuzzDecodeFramePayload(f *testing.F) {
	// Endpoints near 2^31 make 5-byte varints.
	frames := [][]graph.Edge{{{U: 5, V: 1 << 30, W: 2.5}, {U: 1<<31 - 2, V: 0, W: 2.5},
		{U: 1 << 20, V: 1<<31 - 2, W: 2.5}, {U: 0, V: 1 << 14, W: 2.5}}}
	for _, wc := range []graph.WeightConfig{{}, {Mode: graph.PowersOf}, {Mode: graph.UniformWeights, WMax: 9}} {
		frames = append(frames, graph.GNM(300, 700, wc, 31).Edges())
	}
	for _, edges := range frames {
		n := uint32(1<<31 - 1)
		if len(edges) > 4 {
			n = 300
		}
		payload := encodeFrame(nil, edges)
		f.Add(payload, uint16(len(edges)), n)
		f.Add(payload[:len(payload)/2], uint16(len(edges)), n)
		f.Add(payload, uint16(len(edges)+1), n)
		f.Add(payload, uint16(len(edges)), uint32(17))
	}
	f.Fuzz(func(t *testing.T, p []byte, count uint16, n uint32) {
		c := int(count) % (bin2BlockLen + 1)
		got, err := decodeFramePayload(p, c, int(n), make([]graph.Edge, c))
		want, werr := decodeFramePayloadRef(p, c, int(n), make([]graph.Edge, c))
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("error %v, reference %v", err, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d edges, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i].U != want[i].U || got[i].V != want[i].V || math.Float64bits(got[i].W) != math.Float64bits(want[i].W) {
				t.Fatalf("edge %d = %+v, reference %+v", i, got[i], want[i])
			}
		}
	})
}

// TestEndpointVarintsEqualsUvarint holds the endpoint fast path to two
// binary.Uvarint calls on random bytes and on pairs of varints of every
// length from 1 to 10 — minimal, overlong and overflowing encodings, and
// unterminated runs — followed by random tails.
func TestEndpointVarintsEqualsUvarint(t *testing.T) {
	ref := func(p []byte) (uint64, uint64, int) {
		du, n1 := binary.Uvarint(p)
		if n1 <= 0 {
			return 0, 0, 0
		}
		v, n2 := binary.Uvarint(p[n1:])
		if n2 <= 0 {
			return 0, 0, 0
		}
		return du, v, n1 + n2
	}
	check := func(p []byte) {
		du, v, sz := endpointVarints(p)
		if wdu, wv, wsz := ref(p); du != wdu || v != wv || sz != wsz {
			t.Fatalf("endpointVarints(% x) = (%d, %d, %d), binary.Uvarint (%d, %d, %d)", p, du, v, sz, wdu, wv, wsz)
		}
	}
	r := xrand.New(29)
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		return b
	}
	for i := 0; i < 200000; i++ {
		check(randBytes(r.Intn(24)))
	}
	// varint returns an encoding of exactly l bytes: minimal, overlong
	// (a small value padded with continuation bytes), overflowing (a
	// 10th byte above 1) or unterminated.
	varint := func(l, kind int) []byte {
		switch kind {
		case 0: // minimal: the value needs exactly l 7-bit groups
			v := r.Uint64()>>1 | 1<<63
			if l < 10 {
				v = v>>(64-7*l) | 1<<(7*l-1)
			}
			return binary.AppendUvarint(nil, v)
		case 1: // overlong
			b := binary.AppendUvarint(nil, uint64(r.Intn(128)))
			for len(b) < l {
				b[len(b)-1] |= 0x80
				b = append(b, 0)
			}
			return b
		case 2: // overflowing at the 10th byte, or a plain 10-byte value
			b := randBytes(l)
			for i := range b {
				b[i] |= 0x80
			}
			b[l-1] = byte(r.Intn(128))
			return b
		default: // unterminated
			b := randBytes(l)
			for i := range b {
				b[i] |= 0x80
			}
			return b
		}
	}
	for l1 := 1; l1 <= 10; l1++ {
		for l2 := 1; l2 <= 10; l2++ {
			for kind := 0; kind < 4; kind++ {
				for rep := 0; rep < 50; rep++ {
					a, b := varint(l1, kind), varint(l2, r.Intn(4))
					if len(a) != l1 || len(b) != l2 {
						t.Fatalf("fixture: lengths %d, %d, want %d, %d", len(a), len(b), l1, l2)
					}
					p := append(append(a, b...), randBytes(r.Intn(10))...)
					for cut := 0; cut <= len(p); cut++ {
						check(p[:cut])
					}
				}
			}
		}
	}
}
