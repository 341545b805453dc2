package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/stream"
	"repro/match"
)

// span is one traced interval, in seconds since the run started. Spans
// of one job share Job; Parent is the enclosing span's ID (-1 for a
// job's root span).
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
}

// spanLog keeps a run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

// add records one span and returns its ID.
func (l *spanLog) add(name string, start, end time.Time, parent, job int) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Name: name,
		Start: start.Sub(l.origin).Seconds(), End: end.Sub(l.origin).Seconds(),
		Parent: parent, Job: job})
	return id
}

// passRec is one metered pass as the tracing source saw it.
type passRec struct {
	start, end time.Time
	callback   time.Duration // time inside the consumer's callbacks
	edges      int
}

// roundMark is one RoundEvent as the observer saw it.
type roundMark struct {
	at    time.Time
	alloc float64 // cumulative heap bytes allocated at the event
}

// solveTrace collects what one traced solve exposes from outside the
// program: round boundaries (through a match.Observer) and metered
// passes (through tracedSource). Both are delivered on the solving
// goroutine, so the slices need no lock.
type solveTrace struct {
	rounds []roundMark
	passes []passRec
}

// OnRound implements match.Observer.
func (t *solveTrace) OnRound(match.RoundEvent) {
	t.rounds = append(t.rounds, roundMark{at: time.Now(), alloc: heapAllocBytes()})
}

// tracedSource wraps a Source and times every metered pass, splitting
// its wall time into the consumer's callbacks and the rest (decoding the
// backend's blocks). It forwards all four BlockSweeper methods: the
// stream helpers type-assert the whole value, so a wrapper that missed
// one would be bypassed silently — the benchmark catches that by
// checking its pass count against Stats.Passes. Un-metered sweeps are
// forwarded untimed.
type tracedSource struct {
	inner stream.Source
	tr    *solveTrace
}

var (
	_ stream.Source       = (*tracedSource)(nil)
	_ stream.BlockSweeper = (*tracedSource)(nil)
)

func (s *tracedSource) N() int           { return s.inner.N() }
func (s *tracedSource) B(v int) int      { return s.inner.B(v) }
func (s *tracedSource) TotalB() int      { return s.inner.TotalB() }
func (s *tracedSource) Len() int         { return s.inner.Len() }
func (s *tracedSource) Passes() int      { return s.inner.Passes() }
func (s *tracedSource) record(p passRec) { s.tr.passes = append(s.tr.passes, p) }

// ForEach times one metered per-edge pass.
func (s *tracedSource) ForEach(f func(idx int, e graph.Edge) bool) {
	p := passRec{start: time.Now()}
	s.inner.ForEach(func(idx int, e graph.Edge) bool {
		c := time.Now()
		ok := f(idx, e)
		p.callback += time.Since(c)
		p.edges++
		return ok
	})
	p.end = time.Now()
	s.record(p)
}

// Sweep forwards the un-metered sweep.
func (s *tracedSource) Sweep(f func(idx int, e graph.Edge) bool) { s.inner.Sweep(f) }

// ForEachParallel times one metered sharded pass; see parallelPass.
func (s *tracedSource) ForEachParallel(workers int, f func(idx int, e graph.Edge)) {
	var cb, edges atomic.Int64
	start := time.Now()
	s.inner.ForEachParallel(workers, func(idx int, e graph.Edge) {
		c := time.Now()
		f(idx, e)
		cb.Add(int64(time.Since(c)))
		edges.Add(1)
	})
	s.record(parallelPass(start, workers, s.inner.Len(), cb.Load(), edges.Load()))
}

// SweepParallel forwards the un-metered sharded sweep.
func (s *tracedSource) SweepParallel(workers int, f func(idx int, e graph.Edge)) {
	s.inner.SweepParallel(workers, f)
}

// ForEachBlocks times one metered block pass.
func (s *tracedSource) ForEachBlocks(f func(base int, edges []graph.Edge) bool) {
	p := passRec{start: time.Now()}
	stream.ForEachBlocks(s.inner, func(base int, edges []graph.Edge) bool {
		c := time.Now()
		ok := f(base, edges)
		p.callback += time.Since(c)
		p.edges += len(edges)
		return ok
	})
	p.end = time.Now()
	s.record(p)
}

// SweepBlocks forwards the un-metered block sweep.
func (s *tracedSource) SweepBlocks(f func(base int, edges []graph.Edge) bool) {
	stream.SweepBlocks(s.inner, f)
}

// ForEachBlocksParallel times one metered sharded block pass.
func (s *tracedSource) ForEachBlocksParallel(workers int, f func(base int, edges []graph.Edge)) {
	var cb, edges atomic.Int64
	start := time.Now()
	stream.ForEachBlocksParallel(s.inner, workers, func(base int, blk []graph.Edge) {
		c := time.Now()
		f(base, blk)
		cb.Add(int64(time.Since(c)))
		edges.Add(int64(len(blk)))
	})
	s.record(parallelPass(start, workers, s.inner.Len(), cb.Load(), edges.Load()))
}

// SweepBlocksParallel forwards the un-metered sharded block sweep.
func (s *tracedSource) SweepBlocksParallel(workers int, f func(base int, edges []graph.Edge)) {
	stream.SweepBlocksParallel(s.inner, workers, f)
}

// parallelPass settles a sharded pass. Its callbacks ran on up to one
// goroutine per shard at once, so the callback share of the pass's wall
// time is estimated as the summed callback time over the shard count
// (exact when the shards are balanced). None of the benchmark's
// workloads issues a sharded pass today; the estimate only keeps the
// wrapper complete.
func parallelPass(start time.Time, workers, m int, cbNanos, edges int64) passRec {
	shards := len(parallel.Shards(m, parallel.Workers(workers)))
	if shards < 1 {
		shards = 1
	}
	return passRec{start: start, end: time.Now(),
		callback: time.Duration(cbNanos / int64(shards)), edges: int(edges)}
}

// cpuProfile is one stretch of CPU profiling, bucketed by package when
// it stops.
type cpuProfile struct{ buf bytes.Buffer }

// startCPUProfile starts the runtime's CPU profiler.
func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// cpuBuckets are the package groups the traced run attributes CPU to;
// every profile sample lands in exactly one of them.
var cpuBuckets = []string{"core", "sparsify", "matching", "oddset", "pack", "stream", "graph", "serve", "runtime", "other"}

// stop ends the profile and returns CPU seconds per bucket, attributing
// each sample to the package of its leaf function (flat time, the
// innermost inlined frame).
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return bucketProfile(p.buf.Bytes())
}

// bucketOf maps a Go package path onto its CPU bucket. The serve bucket
// holds the wire stack the serving layer drives (net/http, net, JSON
// and base64) along with the package itself.
func bucketOf(pkg string) string {
	switch pkg {
	case "repro/internal/core", "repro/internal/sparsify", "repro/internal/matching",
		"repro/internal/oddset", "repro/internal/pack", "repro/internal/stream", "repro/internal/graph":
		return strings.TrimPrefix(pkg, "repro/internal/")
	case "repro/internal/serve", "net/http", "net", "encoding/json", "encoding/base64":
		return "serve"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// packageOf extracts the package path from a symbol name such as
// "repro/internal/core.(*dualPrimal).Round".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// bucketProfile decodes a gzipped pprof profile (the profile.proto wire
// format, read with a minimal decoder so the benchmark needs nothing
// beyond the standard library) and sums each sample's CPU time into the
// bucket of its leaf function.
func bucketProfile(gz []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	if len(gz) == 0 {
		return out, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id → leaf function id
	funcName := map[uint64]uint64{} // function id → string table index
	var strs []string
	err = walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			first := true
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && first: // the first line is the innermost inlined frame
					first = false
					return walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := walkProto(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		name := ""
		if idx, ok := funcName[locFunc[s.locs[0]]]; ok && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		// The Go CPU profile's last value is the sample's CPU nanoseconds.
		out[bucketOf(packageOf(name))] += float64(s.values[len(s.values)-1]) / 1e9
	}
	return out, nil
}

// appendPacked appends a repeated varint field that arrived either as
// one varint (v, with b nil) or packed into a length-delimited run (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// walkProto visits every field of one protobuf message: varints arrive
// in v (b nil), length-delimited fields in b; fixed-width fields are
// skipped.
func walkProto(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

var errProto = errors.New("malformed protobuf")
