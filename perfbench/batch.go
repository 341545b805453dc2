package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/stream"
	"repro/match"
)

// batchSpec fixes one batch workload: its instance and its solver.
type batchSpec struct {
	n, m    int
	wmax    float64 // edge weights are uniform in [1, wmax]
	gen     bool    // instance replayed by stream.NewGen, never materialized
	algo    string  // registry algorithm; "" = dual-primal, lean profile
	workers int
}

// solveOOCSpec is the paper's regime: the dual-primal solver with the
// lean constants, out of core on an mmap'd RBG2 file whose edge set is
// larger than the solver's peak central space.
func solveOOCSpec(toy bool) batchSpec {
	if toy {
		return batchSpec{n: 48, m: 600, wmax: 25, workers: 2}
	}
	return batchSpec{n: 640, m: 80000, wmax: 25, workers: 1}
}

// scanGreedySpec is the data-access-bound path: a few cheap passes of
// greedy-augment over a large generated RBG2 file.
func scanGreedySpec(toy bool) batchSpec {
	if toy {
		return batchSpec{n: 1024, m: 40000, wmax: 25, gen: true, algo: "greedy-augment", workers: 1}
	}
	return batchSpec{n: 65536, m: 4 << 20, wmax: 25, gen: true, algo: "greedy-augment", workers: 1}
}

// batchSpecs maps each batch workload onto its spec.
var batchSpecs = map[string]func(toy bool) batchSpec{
	"solve-ooc":   solveOOCSpec,
	"scan-greedy": scanGreedySpec,
}

func runSolveOOC(opt options) (*report, error)   { return runBatch(opt, solveOOCSpec(opt.toy)) }
func runScanGreedy(opt options) (*report, error) { return runBatch(opt, scanGreedySpec(opt.toy)) }

// options returns the solver configuration: ε=0.3, p=2, and for the
// dual-primal solver the E15 lean profile (6 forests per sparsifier, no
// deferred oversampling).
func (sp batchSpec) options() []match.Option {
	opts := []match.Option{match.WithEps(0.3), match.WithSpaceExponent(2), match.WithWorkers(sp.workers)}
	if sp.algo != "" {
		return append(opts, match.WithAlgorithm(sp.algo))
	}
	prof := match.Practical(0.3)
	prof.SparsifierK = 6
	prof.ChiOverride = 1
	return append(opts, match.WithProfile(prof))
}

// instance is a batch workload's input: an RBG2 file, opened through
// mmap, plus the in-memory graph it was written from when there is one.
type instance struct {
	src  *stream.FileSource
	g    *graph.Graph // nil for generator-written instances
	size int64        // file bytes
}

// buildInstance writes the seed's instance to path and opens it.
func buildInstance(path string, sp batchSpec, seed uint64) (*instance, error) {
	wc := graph.WeightConfig{Mode: graph.UniformWeights, WMax: sp.wmax}
	in := &instance{}
	var from stream.Source
	if sp.gen {
		gs, err := stream.NewGen(stream.GenSpec{N: sp.n, M: sp.m, Weights: wc, Seed: seed})
		if err != nil {
			return nil, err
		}
		from = gs
	} else {
		in.g = graph.GNM(sp.n, sp.m, wc, seed)
		from = stream.NewEdgeStream(in.g)
	}
	if err := stream.WriteBinaryFile2(path, from); err != nil {
		return nil, err
	}
	src, err := stream.OpenBinary(path)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		src.Close()
		return nil, err
	}
	in.src, in.size = src, st.Size()
	return in, nil
}

func (in *instance) close() { in.src.Close() }

// coverBound is Σ_v max_w(v)/2: y_v = max_w(v)/2 covers every edge
// (y_u + y_v ≥ w_uv), so by weak duality it bounds every matching's
// weight from above. It certifies algorithms that compute no dual.
func coverBound(src stream.Source) float64 {
	best := make([]float64, src.N())
	stream.ForEachBlocks(src, func(_ int, edges []graph.Edge) bool {
		for _, e := range edges {
			if e.W > best[e.U] {
				best[e.U] = e.W
			}
			if e.W > best[e.V] {
				best[e.V] = e.W
			}
		}
		return true
	})
	sum := 0.0
	for _, w := range best {
		sum += w
	}
	return sum / 2
}

// solveOut is one timed solve.
type solveOut struct {
	res        *match.Result
	err        error
	start, end time.Time
	endAlloc   float64 // cumulative heap bytes allocated at end
	d          meters
	tr         *solveTrace        // traced solves only
	cpu        map[string]float64 // traced solves only: CPU seconds by bucket
}

func (o solveOut) wall() float64 { return o.end.Sub(o.start).Seconds() }

// solveOnce runs one cold match.New + Solve over src. A traced solve
// goes through the timing wrapper with an Observer attached and the CPU
// profiler running; the profiler starts and stops outside the timed
// interval.
func solveOnce(src stream.Source, opts []match.Option, traced bool) (solveOut, error) {
	var out solveOut
	var prof *cpuProfile
	run := src
	if traced {
		out.tr = &solveTrace{}
		run = &tracedSource{inner: src, tr: out.tr}
		opts = append(opts[:len(opts):len(opts)], match.WithObserver(out.tr))
		p, err := startCPUProfile()
		if err != nil {
			return out, err
		}
		prof = p
	}
	m0 := readMeters()
	out.start = time.Now()
	s, err := match.New(opts...)
	if err == nil {
		out.res, out.err = s.Solve(context.Background(), run)
	} else {
		out.err = err
	}
	out.end = time.Now()
	out.endAlloc = heapAllocBytes()
	out.d = readMeters().sub(m0)
	if prof != nil {
		cpu, err := prof.stop()
		if err != nil {
			return out, err
		}
		out.cpu = cpu
	}
	return out, nil
}

// digest fingerprints a Result bit for bit (JSON floats round-trip
// exactly).
func digest(res *match.Result) string {
	raw, err := json.Marshal(res)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// batchCheck is the correctness gate every batch result passes through.
type batchCheck struct {
	rep  *report
	src  stream.Source
	pin  *pin
	ref  string        // digest of the run's first successful result
	refd *match.Result // that result
}

// check validates one solve; it reports whether the solve counts as
// successful.
func (c *batchCheck) check(o solveOut) bool {
	if o.err != nil {
		c.rep.fail("solve: %v", o.err)
		return false
	}
	if err := o.res.Validate(c.src); err != nil {
		c.rep.fail("matching infeasible: %v", err)
		return false
	}
	ok := true
	d := digest(o.res)
	if c.ref == "" {
		c.ref, c.refd = d, o.res
	} else if d != c.ref {
		c.rep.fail("result differs from the run's first solve (traced=%v)", o.tr != nil)
		ok = false
	}
	if p := c.pin; p != nil {
		st := o.res.Stats
		if o.res.Weight != p.weight || st.Passes != p.passes || st.SamplingRounds != p.rounds || st.PeakWords != p.peakWords {
			c.rep.fail("result (weight %v, passes %d, rounds %d, peak words %d) differs from the pinned %+v",
				o.res.Weight, st.Passes, st.SamplingRounds, st.PeakWords, *p)
			ok = false
		}
	}
	if o.tr != nil && len(o.tr.passes) != o.res.Stats.Passes {
		c.rep.fail("tracing source saw %d metered passes, Stats.Passes is %d (a sweep method bypassed the wrapper)",
			len(o.tr.passes), o.res.Stats.Passes)
		ok = false
	}
	return ok
}

// runBatch runs one closed-loop batch workload: one caller, one cold
// match.New + Solve per job, until the window is spent. A traced run
// alternates untraced and traced solves so the tracing overhead is
// measured on the same instance.
func runBatch(opt options, sp batchSpec) (*report, error) {
	rep := newReport()
	rep.speedDurations = []string{"setup_s", "solve_s.p50", "latency_ms.p50", "cpu_s_per_job"}
	rep.speedRates = []string{"goodput_rps"}
	path := filepath.Join(opt.dir, fmt.Sprintf("%s-%d.rbg", opt.workload, opt.seed))
	in, setupS, err := timeSetup(func() (*instance, error) { return buildInstance(path, sp, opt.seed) }, (*instance).close)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	defer in.close()
	set(rep.e2e, "setup_s", setupS)

	// Reference bounds, outside every timed region.
	bound := coverBound(in.src)
	optimum := 0.0
	if sp.algo == "" && in.g != nil {
		_, optimum = matching.MaxWeightMatchingFloat(in.g, false)
	}
	in.g = nil

	chk := &batchCheck{rep: rep, src: in.src}
	if p, ok := pins[opt.workload][opt.seed]; ok && !opt.toy {
		chk.pin = &p
	} else if !opt.toy {
		msg := fmt.Sprintf("# WARNING: seed %d has no pin in pins.go; weight, passes, rounds and peak words are checked only for repeatability within this run\n", opt.seed)
		fmt.Print(msg)
		fmt.Fprint(os.Stderr, msg)
	}
	minSolves := 3
	if opt.trace {
		minSolves = 4
	}
	var plain, traced []solveOut
	var walls []float64
	start := time.Now()
	for i := 0; ; i++ {
		if len(walls) >= minSolves && secondsSince(start)+median(walls) > opt.seconds {
			break
		}
		c, err := calibrateProc()
		if err != nil {
			return nil, err
		}
		rep.calibs = append(rep.calibs, c)
		o, err := solveOnce(in.src, sp.options(), opt.trace && i%2 == 1)
		if err != nil {
			return nil, err
		}
		rep.attempted++
		walls = append(walls, o.wall())
		if !chk.check(o) {
			rep.failed++
			continue
		}
		if o.tr != nil {
			traced = append(traced, o)
		} else {
			plain = append(plain, o)
		}
	}
	if len(plain) == 0 || chk.refd == nil {
		return rep, errNoJobs
	}

	res := chk.refd
	var plainWalls []float64
	var sum meters
	for _, o := range plain {
		plainWalls = append(plainWalls, o.wall())
		sum = sum.add(o.d)
	}
	jobs := float64(len(plain))
	// A closed loop with one caller: a job is due when the last one ends,
	// so latency_ms.p50 is solve_s.p50 in ms and goodput_rps is 1/mean
	// solve time. They are printed because every workload prints every
	// end-to-end metric; they carry no more than solve_s.p50 here.
	set(rep.e2e, "solve_s.p50", median(plainWalls))
	set(rep.e2e, "latency_ms.p50", 1000*median(plainWalls))
	set(rep.layers, "latency_ms.p95", 1000*quantile(plainWalls, 0.95))
	set(rep.e2e, "cpu_s_per_job", sum.cpu/jobs)
	set(rep.e2e, "alloc_mb_per_job", sum.heapAlloc/jobs/1e6)
	set(rep.e2e, "goodput_rps", 1/mean(plainWalls))
	set(rep.e2e, "passes", float64(res.Stats.Passes))
	set(rep.e2e, "rounds", float64(res.Stats.SamplingRounds))
	set(rep.e2e, "peak_words", float64(res.Stats.PeakWords))
	if sp.algo == "" {
		set(rep.e2e, "cert_ratio", res.Weight/res.CertifiedUpperBound())
		set(rep.e2e, "approx_ratio", res.Weight/optimum)
	} else {
		// No dual and no exact optimum at this size: both ratios use the
		// vertex-cover bound, so approx_ratio is a lower bound here.
		set(rep.e2e, "cert_ratio", res.Weight/bound)
		set(rep.e2e, "approx_ratio", res.Weight/bound)
	}
	set(rep.e2e, "rss_peak_mb", rssPeakMB())
	fmt.Printf("# %s n=%d m=%d file=%dB solves=%d traced=%d weight=%v\n",
		opt.workload, sp.n, sp.m, in.size, len(plain), len(traced), res.Weight)

	if opt.trace {
		if len(traced) == 0 {
			return rep, errNoJobs
		}
		log := &spanLog{origin: start}
		batchLayers(rep.layers, traced, sp.algo == "", log, float64(in.size)/float64(sp.m))
		var tracedWalls []float64
		for _, o := range traced {
			tracedWalls = append(tracedWalls, o.wall())
		}
		set(rep.layers, "trace.overhead_frac", median(tracedWalls)/median(plainWalls)-1)
		zeroLayers(rep.layers, "serve.", "load.")
		rep.spans = log.spans
	}
	return rep, nil
}
