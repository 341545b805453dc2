package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// Compact binary edge formats for out-of-core instances, little-endian
// throughout. Two wire versions share the FileSource backend and are
// auto-detected by magic:
//
// RBG1 — fixed-size records. The layout is a fixed header, an optional
// capacity table, then 16-byte edge records:
//
//	offset  size  field
//	0       4     magic "RBG1"
//	4       1     version (1)
//	5       1     flags (bit 0: capacity table present)
//	6       2     reserved (0)
//	8       8     n (uint64)
//	16      8     m (uint64)
//	24      4n    capacities (uint32 each), only when flag bit 0 is set
//	…       16m   edge records: u uint32, v uint32, w float64 (IEEE bits)
//
// Fixed-size records make every access a pure offset computation: a
// pass is a sequential chunked read, a parallel pass maps shard
// [lo, hi) to byte range [off+16·lo, off+16·hi) — the file never needs
// to be resident.
//
// RBG2 — varint/delta-compressed successor. Edges are framed in blocks
// of `blockLen` records (stream order is preserved exactly — the codec
// never reorders), each frame independently decodable, with a frame
// offset index at the tail so parallel shards keep working:
//
//	offset  size  field
//	0       4     magic "RBG2"
//	4       1     version (2)
//	5       1     flags (bit 0: capacity table present)
//	6       2     reserved (0)
//	8       8     n (uint64)
//	16      8     m (uint64)
//	24      4     blockLen: edges per frame (uint32)
//	28      4     reserved (0)
//	32      4n    capacities (uint32 each), only when flag bit 0 is set
//	…       …     frames (ceil(m/blockLen) of them, back to back)
//	…       8B    frame index: one uint64 absolute offset per frame
//	end-16  8     index offset (uint64)
//	end-8   8     trailer magic "RBG2IDX1"
//
// Each frame is:
//
//	offset  size  field
//	0       4     payload length in bytes (uint32, excludes this header)
//	4       4     edge count (uint32; blockLen except the last frame)
//	8       1     weight mode: 0 unit, 1 const, 2 dict, 3 raw
//	…       …     mode 1: 8-byte weight; mode 2: dict length byte then
//	              that many 8-byte weights (first-appearance order)
//	…       …     endpoint section, per edge: uvarint(zigzag(u-prevU))
//	              then uvarint(v); prevU starts at 0 per frame
//	…       …     weight section: mode 2: one dict index byte per edge;
//	              mode 3: 8 bytes per edge; modes 0/1: empty
//
// The endpoint delta plus the per-block weight dictionary is where the
// compression comes from: unit-weight graphs spend ~4 bytes/edge
// instead of 16, and any weight law with few distinct values per block
// (unit, powers, constants) skips the 8-byte float entirely.

const (
	binMagic      = "RBG1"
	binVersion    = 1
	binFlagHasB   = 1
	binRecordSize = 16
	// binReadBuffer sizes the writer's buffered output: big enough to
	// make encoding sequential-I/O bound, small enough that a write
	// holds O(1) memory relative to the instance.
	binReadBuffer = 1 << 18

	bin2Magic       = "RBG2"
	bin2Version     = 2
	bin2HeaderSize  = 32
	bin2TrailerSize = 16
	bin2IndexMagic  = "RBG2IDX1"
	// bin2BlockLen is the frame granule the writer uses; readers accept
	// any value in [1, bin2MaxBlockLen]. It matches BlockEdges so
	// decoded frames map one-to-one onto delivered blocks.
	bin2BlockLen = BlockEdges
	// bin2MaxBlockLen bounds the per-sweep decode scratch a hostile
	// header can demand.
	bin2MaxBlockLen = 1 << 18
	// bin2MaxDict is the writer's cap on per-frame weight dictionaries.
	// The wire format allows up to 255; past a few dozen distinct
	// values per block the raw encoding is nearly as small anyway.
	bin2MaxDict = 64

	// binMaxVertices / binMaxEdges reject absurd headers before any
	// size-derived allocation happens (the stat-size checks then bound
	// everything else).
	binMaxVertices = int64(1) << 40
	binMaxEdges    = int64(1) << 48
)

// ReadError is the typed failure of a FileSource access: an I/O error
// or a corrupt frame discovered mid-sweep. The Source sweep contract
// has no error return, so sweeps surface it as a panic payload;
// CatchReadError recovers exactly this type and converts it into a
// normal error, which is how a bad file fails one solve (or one
// admission) instead of taking down a serving pool.
type ReadError struct {
	// Path is the file the access hit.
	Path string
	// Off is the byte offset of the failed access.
	Off int64
	// Err is the underlying I/O or format error.
	Err error
}

// Error implements error.
func (e *ReadError) Error() string {
	return fmt.Sprintf("stream: read %s @%d: %v", e.Path, e.Off, e.Err)
}

// Unwrap returns the underlying error.
func (e *ReadError) Unwrap() error { return e.Err }

// CatchReadError runs f, converting the typed *ReadError panic a
// FileSource sweep raises on I/O failure or frame corruption into an
// ordinary error return. The panic may arrive wrapped in a
// *parallel.JobPanic when the failing sweep ran on a worker goroutine.
// Every other panic value is a programmer error and is re-raised
// untouched.
func CatchReadError(f func() error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		v := r
		if jp, ok := r.(*parallel.JobPanic); ok {
			v = jp.Value
		}
		if re, ok := v.(*ReadError); ok {
			err = re
			return
		}
		panic(r)
	}()
	return f()
}

// WriteBinary encodes src in the RBG1 format (one metered pass over src).
func WriteBinary(w io.Writer, src Source) error {
	bw := bufio.NewWriterSize(w, binReadBuffer)
	n, m := src.N(), src.Len()
	flags := byte(0)
	if hasCapacities(src) {
		flags |= binFlagHasB
	}
	header := make([]byte, 24)
	copy(header, binMagic)
	header[4] = binVersion
	header[5] = flags
	binary.LittleEndian.PutUint64(header[8:], uint64(n))
	binary.LittleEndian.PutUint64(header[16:], uint64(m))
	if _, err := bw.Write(header); err != nil {
		return err
	}
	if flags&binFlagHasB != 0 {
		if err := writeCapacities(bw, src); err != nil {
			return err
		}
	}
	var werr error
	var rec [binRecordSize]byte
	src.ForEach(func(_ int, e graph.Edge) bool {
		binary.LittleEndian.PutUint32(rec[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(rec[4:], uint32(e.V))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(e.W))
		if _, err := bw.Write(rec[:]); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

func hasCapacities(src Source) bool {
	for v := 0; v < src.N(); v++ {
		if src.B(v) != 1 {
			return true
		}
	}
	return false
}

func writeCapacities(bw *bufio.Writer, src Source) error {
	var buf [4]byte
	for v := 0; v < src.N(); v++ {
		binary.LittleEndian.PutUint32(buf[:], uint32(src.B(v)))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// WriteBinaryFile encodes src into a new RBG1 file at path.
func WriteBinaryFile(path string, src Source) error {
	return writeFile(path, src, WriteBinary)
}

// WriteBinary2 encodes src in the RBG2 format (one metered pass over
// src). The edge order on the wire is exactly the stream order — the
// codec compresses, it never reorders — so a round trip through RBG2
// is bit-identical to the source.
func WriteBinary2(w io.Writer, src Source) error {
	bw := bufio.NewWriterSize(w, binReadBuffer)
	n, m := src.N(), src.Len()
	flags := byte(0)
	if hasCapacities(src) {
		flags |= binFlagHasB
	}
	header := make([]byte, bin2HeaderSize)
	copy(header, bin2Magic)
	header[4] = bin2Version
	header[5] = flags
	binary.LittleEndian.PutUint64(header[8:], uint64(n))
	binary.LittleEndian.PutUint64(header[16:], uint64(m))
	binary.LittleEndian.PutUint32(header[24:], uint32(bin2BlockLen))
	if _, err := bw.Write(header); err != nil {
		return err
	}
	off := int64(bin2HeaderSize)
	if flags&binFlagHasB != 0 {
		if err := writeCapacities(bw, src); err != nil {
			return err
		}
		off += int64(4 * n)
	}
	numBlocks := (m + bin2BlockLen - 1) / bin2BlockLen
	frameOff := make([]int64, 0, numBlocks)
	staged := make([]graph.Edge, 0, bin2BlockLen)
	var payload []byte
	var werr error
	flush := func() bool {
		if len(staged) == 0 {
			return true
		}
		payload = encodeFrame(payload[:0], staged)
		var fh [8]byte
		binary.LittleEndian.PutUint32(fh[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(fh[4:], uint32(len(staged)))
		if _, err := bw.Write(fh[:]); err != nil {
			werr = err
			return false
		}
		if _, err := bw.Write(payload); err != nil {
			werr = err
			return false
		}
		frameOff = append(frameOff, off)
		off += int64(8 + len(payload))
		staged = staged[:0]
		return true
	}
	src.ForEach(func(_ int, e graph.Edge) bool {
		staged = append(staged, e)
		if len(staged) == bin2BlockLen {
			return flush()
		}
		return true
	})
	if werr == nil {
		flush()
	}
	if werr != nil {
		return werr
	}
	if len(frameOff) != numBlocks {
		return fmt.Errorf("stream: source delivered %d frames of edges, header promised %d", len(frameOff), numBlocks)
	}
	var u64 [8]byte
	indexOff := off
	for _, fo := range frameOff {
		binary.LittleEndian.PutUint64(u64[:], uint64(fo))
		if _, err := bw.Write(u64[:]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(u64[:], uint64(indexOff))
	if _, err := bw.Write(u64[:]); err != nil {
		return err
	}
	if _, err := bw.Write([]byte(bin2IndexMagic)); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteBinaryFile2 encodes src into a new RBG2 file at path.
func WriteBinaryFile2(path string, src Source) error {
	return writeFile(path, src, WriteBinary2)
}

func writeFile(path string, src Source, enc func(io.Writer, Source) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := enc(f, src); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// encodeFrame appends one RBG2 frame payload for the staged edges.
func encodeFrame(dst []byte, edges []graph.Edge) []byte {
	// Pick the weight mode: all-unit and all-constant blocks carry no
	// per-edge weight bytes at all; a small distinct set becomes a
	// one-byte dictionary index per edge; anything else is raw floats.
	allUnit, allConst := true, true
	var dict []float64
	for i := range edges {
		w := edges[i].W
		if w != 1 {
			allUnit = false
		}
		if w != edges[0].W {
			allConst = false
		}
		if dict != nil || i == 0 {
			found := false
			for _, dw := range dict {
				if dw == w {
					found = true
					break
				}
			}
			if !found {
				if len(dict) == bin2MaxDict {
					dict = nil
				} else {
					dict = append(dict, w)
				}
			}
		}
	}
	switch {
	case allUnit:
		dst = append(dst, 0)
	case allConst:
		dst = append(dst, 1)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(edges[0].W))
	case dict != nil:
		dst = append(dst, 2, byte(len(dict)))
		for _, dw := range dict {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(dw))
		}
	default:
		dst = append(dst, 3)
	}
	prevU := int64(0)
	for i := range edges {
		u := int64(edges[i].U)
		dst = binary.AppendUvarint(dst, zigzag(u-prevU))
		dst = binary.AppendUvarint(dst, uint64(uint32(edges[i].V)))
		prevU = u
	}
	switch {
	case allUnit || allConst:
	case dict != nil:
		for i := range edges {
			for di, dw := range dict {
				if dw == edges[i].W {
					dst = append(dst, byte(di))
					break
				}
			}
		}
	default:
		for i := range edges {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(edges[i].W))
		}
	}
	return dst
}

func zigzag(x int64) uint64 { return uint64((x << 1) ^ (x >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// FileSource is the out-of-core Source backend: edges live in an RBG1
// or RBG2 file (auto-detected) and every sweep is a chunked block
// decode. Only the header, the O(n) capacity table and the O(m/blockLen)
// frame index are resident — plus, where the platform supports it, a
// read-only mmap of the file, in which case passes are sequential
// page-ins with no read syscalls at all (ReadAt is the fallback).
// Sweeps are safe for concurrent use.
type FileSource struct {
	sweeps
	f       *os.File
	path    string
	n, m    int
	b       []int // nil = all ones
	totalB  int
	dataOff int64
	ver     int
	data    []byte // read-only mmap of the whole file; nil = pread path

	// Block geometry: block k holds edges [k·blockLen, …) — an RBG2
	// frame, occupying bytes [frameOff[k], frameOff[k+1]), or BlockEdges
	// RBG1 records. maxFrame is the largest block in bytes.
	blockLen int
	frameOff []int64 // RBG2 only
	maxFrame int
}

var _ Source = (*FileSource)(nil)
var _ BlockSweeper = (*FileSource)(nil)

// OpenOptions configures OpenBinaryWith.
type OpenOptions struct {
	// NoMmap forces the ReadAt access path even on platforms where the
	// file could be mapped. The mmap and ReadAt paths decode the same
	// bytes through the same frame decoders — this switch exists for
	// measurement (experiment E19) and as an escape hatch.
	NoMmap bool
}

// OpenBinary opens an RBG1 or RBG2 file as a Source, detecting the
// version from the magic. The file is mapped read-only when the
// platform supports it, with a transparent ReadAt fallback.
func OpenBinary(path string) (*FileSource, error) {
	return OpenBinaryWith(path, OpenOptions{})
}

// OpenBinaryWith is OpenBinary with explicit options.
func OpenBinaryWith(path string, opt OpenOptions) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := newFileSource(f, path, opt)
	if err != nil {
		f.Close()
		return nil, err
	}
	return src, nil
}

func newFileSource(f *os.File, path string, opt OpenOptions) (*FileSource, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return nil, fmt.Errorf("stream: short binary header: %w", err)
	}
	var src *FileSource
	switch string(magic[:]) {
	case binMagic:
		src, err = parseV1(f, size)
	case bin2Magic:
		src, err = parseV2(f, size)
	default:
		return nil, fmt.Errorf("stream: bad magic %q (want %q or %q)", magic[:], binMagic, bin2Magic)
	}
	if err != nil {
		return nil, err
	}
	src.path = path
	src.ranged(src.Len, src.read)
	if !opt.NoMmap {
		// Best-effort: a failed map (platform without support, weird
		// filesystem, empty file) silently keeps the ReadAt path.
		if data, merr := mmapFile(f, size); merr == nil {
			src.data = data
			adviseSequential(data)
		}
	}
	return src, nil
}

// readHeader validates the shared n/m/flags header fields.
func readHeader(f *os.File, header []byte, size, fixed int64) (n, m int, err error) {
	if size < fixed {
		return 0, 0, fmt.Errorf("stream: short binary header: %d bytes", size)
	}
	if _, err := f.ReadAt(header, 0); err != nil {
		return 0, 0, fmt.Errorf("stream: short binary header: %w", err)
	}
	n64 := int64(binary.LittleEndian.Uint64(header[8:]))
	m64 := int64(binary.LittleEndian.Uint64(header[16:]))
	if n64 < 0 || m64 < 0 || n64 > binMaxVertices || m64 > binMaxEdges {
		return 0, 0, fmt.Errorf("stream: implausible header n=%d m=%d", n64, m64)
	}
	return int(n64), int(m64), nil
}

// readCapacities loads the 4n-byte capacity table when the flag is set.
// The caller has already checked the file is big enough to hold it.
func (s *FileSource) readCapacities(f *os.File) error {
	raw := make([]byte, 4*s.n)
	if _, err := f.ReadAt(raw, s.dataOff); err != nil {
		return fmt.Errorf("stream: short capacity table: %w", err)
	}
	s.b = make([]int, s.n)
	s.totalB = 0
	for v := 0; v < s.n; v++ {
		bv := int(binary.LittleEndian.Uint32(raw[4*v:]))
		if bv < 1 {
			return fmt.Errorf("stream: capacity %d of vertex %d out of range", bv, v)
		}
		s.b[v] = bv
		s.totalB += bv
	}
	s.dataOff += int64(4 * s.n)
	return nil
}

func parseV1(f *os.File, size int64) (*FileSource, error) {
	header := make([]byte, 24)
	n, m, err := readHeader(f, header, size, 24)
	if err != nil {
		return nil, err
	}
	if header[4] != binVersion {
		return nil, fmt.Errorf("stream: unsupported RBG1 version %d", header[4])
	}
	src := &FileSource{f: f, n: n, m: m, totalB: n, dataOff: 24, ver: 1,
		blockLen: BlockEdges, maxFrame: BlockEdges * binRecordSize}
	if header[5]&binFlagHasB != 0 {
		if size < 24+int64(4)*int64(n) {
			return nil, fmt.Errorf("stream: short capacity table: %d bytes", size)
		}
		if err := src.readCapacities(f); err != nil {
			return nil, err
		}
	}
	if want := src.dataOff + int64(m)*binRecordSize; size < want {
		return nil, fmt.Errorf("stream: truncated edge section: %d bytes, want %d", size, want)
	}
	return src, nil
}

func parseV2(f *os.File, size int64) (*FileSource, error) {
	header := make([]byte, bin2HeaderSize)
	n, m, err := readHeader(f, header, size, bin2HeaderSize+bin2TrailerSize)
	if err != nil {
		return nil, err
	}
	if header[4] != bin2Version {
		return nil, fmt.Errorf("stream: unsupported RBG2 version %d", header[4])
	}
	blockLen := int(binary.LittleEndian.Uint32(header[24:]))
	if blockLen < 1 || blockLen > bin2MaxBlockLen {
		return nil, fmt.Errorf("stream: RBG2 block length %d out of range [1,%d]", blockLen, bin2MaxBlockLen)
	}
	src := &FileSource{f: f, n: n, m: m, totalB: n, dataOff: bin2HeaderSize, ver: 2, blockLen: blockLen}
	if header[5]&binFlagHasB != 0 {
		if size < bin2HeaderSize+int64(4)*int64(n)+bin2TrailerSize {
			return nil, fmt.Errorf("stream: short capacity table: %d bytes", size)
		}
		if err := src.readCapacities(f); err != nil {
			return nil, err
		}
	}
	numBlocks := (m + blockLen - 1) / blockLen
	var trailer [bin2TrailerSize]byte
	if _, err := f.ReadAt(trailer[:], size-bin2TrailerSize); err != nil {
		return nil, fmt.Errorf("stream: short RBG2 trailer: %w", err)
	}
	if string(trailer[8:]) != bin2IndexMagic {
		return nil, fmt.Errorf("stream: bad RBG2 trailer magic %q", trailer[8:])
	}
	indexOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if wantIdx := size - bin2TrailerSize - int64(8)*int64(numBlocks); indexOff != wantIdx || indexOff < src.dataOff {
		return nil, fmt.Errorf("stream: RBG2 index offset %d inconsistent with %d frames in %d bytes", indexOff, numBlocks, size)
	}
	rawIdx := make([]byte, 8*numBlocks)
	if _, err := f.ReadAt(rawIdx, indexOff); err != nil {
		return nil, fmt.Errorf("stream: short RBG2 index: %w", err)
	}
	src.frameOff = make([]int64, numBlocks+1)
	src.frameOff[numBlocks] = indexOff
	prev := src.dataOff
	for k := 0; k < numBlocks; k++ {
		fo := int64(binary.LittleEndian.Uint64(rawIdx[8*k:]))
		if fo != prev {
			return nil, fmt.Errorf("stream: RBG2 frame %d at offset %d, want %d (frames must be contiguous)", k, fo, prev)
		}
		src.frameOff[k] = fo
		prev = fo
		// Advance past this frame using the next index entry (or the
		// index itself for the last frame); lengths are validated here
		// so sweeps can trust the geometry.
		var end int64
		if k+1 < numBlocks {
			end = int64(binary.LittleEndian.Uint64(rawIdx[8*(k+1):]))
		} else {
			end = indexOff
		}
		frameLen := end - fo
		if frameLen < 9 {
			return nil, fmt.Errorf("stream: RBG2 frame %d has %d bytes, want >= 9", k, frameLen)
		}
		if int(frameLen) > src.maxFrame {
			src.maxFrame = int(frameLen)
		}
		prev = end
	}
	return src, nil
}

// Close releases the mapping (when present) and the underlying file.
func (s *FileSource) Close() error {
	if s.data != nil {
		munmapFile(s.data)
		s.data = nil
	}
	return s.f.Close()
}

// N returns the number of vertices.
func (s *FileSource) N() int { return s.n }

// B returns the capacity of vertex v.
func (s *FileSource) B(v int) int {
	if s.b == nil {
		return 1
	}
	return s.b[v]
}

// TotalB returns Σ b_i.
func (s *FileSource) TotalB() int { return s.totalB }

// Len returns the stream length m.
func (s *FileSource) Len() int { return s.m }

// Mapped reports whether the file is served from a memory mapping
// (false means the ReadAt fallback is in use).
func (s *FileSource) Mapped() bool { return s.data != nil }

// bytesAt returns the n bytes at off: a slice of the mapping, or raw
// filled by ReadAt on the pread path.
func (s *FileSource) bytesAt(off int64, n int, raw []byte) ([]byte, error) {
	if s.data != nil {
		return s.data[off : off+int64(n)], nil
	}
	buf := raw[:n]
	_, err := s.f.ReadAt(buf, off)
	return buf, err
}

func decodeRecord(rec []byte) graph.Edge {
	return graph.Edge{
		U: int32(binary.LittleEndian.Uint32(rec[0:])),
		V: int32(binary.LittleEndian.Uint32(rec[4:])),
		W: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
	}
}

// checkEdge validates a decoded RBG1 record's endpoints — a hostile or
// corrupt file must fail the sweep cleanly, not hand consumers vertex
// IDs that index out of range.
func (s *FileSource) checkEdge(e graph.Edge) error {
	if e.U < 0 || e.V < 0 || int(e.U) >= s.n || int(e.V) >= s.n || e.U == e.V {
		return fmt.Errorf("edge endpoints (%d, %d) invalid for n=%d", e.U, e.V, s.n)
	}
	return nil
}

// decodeFrameInto reads and decodes RBG2 frame k into out (which must
// have capacity for blockLen edges), returning the decoded edges.
func (s *FileSource) decodeFrameInto(k int, raw []byte, out []graph.Edge) ([]graph.Edge, error) {
	frameLen := int(s.frameOff[k+1] - s.frameOff[k])
	buf, err := s.bytesAt(s.frameOff[k], frameLen, raw)
	if err != nil {
		return nil, err
	}
	payloadLen := int(binary.LittleEndian.Uint32(buf[0:]))
	count := int(binary.LittleEndian.Uint32(buf[4:]))
	if payloadLen != frameLen-8 {
		return nil, fmt.Errorf("frame %d: payload %d bytes, frame holds %d", k, payloadLen, frameLen-8)
	}
	want := s.blockLen
	if rest := s.m - k*s.blockLen; rest < want {
		want = rest
	}
	if count != want {
		return nil, fmt.Errorf("frame %d: %d edges, want %d", k, count, want)
	}
	return decodeFramePayload(buf[8:], count, s.n, out)
}

// decodeFramePayload decodes one frame payload. Every read is bounds-
// checked and endpoints are validated against n — frames from
// untrusted files must fail cleanly, not index out of range.
func decodeFramePayload(p []byte, count, n int, out []graph.Edge) ([]graph.Edge, error) {
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

// read decodes edges [lo, hi) in dense blocks into per-call scratch
// (the backend's one read loop; safe for concurrent sweeps, and
// callbacks must not retain the slice). Delivered blocks follow the
// file's blocks — RBG2 frames map one-to-one onto them — clipped to
// [lo, hi). On the mmap path the next block's bytes are advised ahead
// of the decode, so a pass overlaps page-in with decoding.
func (s *FileSource) read(lo, hi int, f func(base int, edges []graph.Edge) bool) bool {
	scratch := make([]graph.Edge, s.blockLen)
	var raw []byte
	if s.data == nil {
		raw = make([]byte, s.maxFrame)
	}
	for k := lo / s.blockLen; k*s.blockLen < hi; k++ {
		from, to := max(k*s.blockLen, lo), min((k+1)*s.blockLen, hi)
		if s.data != nil && to < hi {
			s.adviseNext(s.blockSpan(k + 1))
		}
		if !f(from, s.decodeBlock(k, from, to, raw, scratch)) {
			return false
		}
	}
	return true
}

// decodeBlock decodes edges [from, to) of block k into out. An I/O
// failure or a corrupt record or frame panics with a typed *ReadError
// (the sweep contract has no error return; the engine converts the
// panic into an abort).
func (s *FileSource) decodeBlock(k, from, to int, raw []byte, out []graph.Edge) []graph.Edge {
	if s.ver == 2 {
		blk, err := s.decodeFrameInto(k, raw, out)
		if err != nil {
			panic(&ReadError{Path: s.path, Off: s.frameOff[k], Err: err})
		}
		base := k * s.blockLen
		return blk[from-base : to-base]
	}
	off := s.dataOff + int64(from)*binRecordSize
	rec, err := s.bytesAt(off, (to-from)*binRecordSize, raw)
	if err != nil {
		panic(&ReadError{Path: s.path, Off: off, Err: err})
	}
	blk := out[:to-from]
	for i := range blk {
		blk[i] = decodeRecord(rec[i*binRecordSize:])
		if err := s.checkEdge(blk[i]); err != nil {
			panic(&ReadError{Path: s.path, Off: off + int64(i)*binRecordSize, Err: err})
		}
	}
	return blk
}

// blockSpan returns the byte range of block k.
func (s *FileSource) blockSpan(k int) (off, length int64) {
	if s.ver == 2 {
		return s.frameOff[k], s.frameOff[k+1] - s.frameOff[k]
	}
	return s.dataOff + int64(k*s.blockLen)*binRecordSize, int64(s.blockLen) * binRecordSize
}

// adviseNext hints the kernel to page in the next block's byte range
// while the current one decodes (no-op off the mmap path or on
// platforms without madvise).
func (s *FileSource) adviseNext(off, length int64) {
	end := off + length
	if max := int64(len(s.data)); end > max {
		end = max
	}
	if off >= end {
		return
	}
	adviseWillNeed(s.data[off:end])
}
