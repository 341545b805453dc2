// Command perfbench is the repository benchmark. It drives the two user
// paths — file-backed batch solves (what matchsolve does) and matchd
// requests — through their public entry points only, and prints one JSON
// result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones, measured from outside
// the program through a match.Observer, a timing stream.Source wrapper,
// the serving layer's own queueMs/solveMs fields and /metrics, and CPU
// profile samples bucketed by package. See README.md for the workloads
// and what each metric should move.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload solve-ooc --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // scratch directory for instance files and span dumps
	toy      bool   // toy-size inputs (smoke tests)
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run hands back: counts, both metric sets
// (only one of which is printed), the spans of a traced run, and any
// correctness failures.
type report struct {
	attempted int
	failed    int
	e2e       map[string]metric
	layers    map[string]metric
	spans     []span
	problems  []string
	// speedDurations and speedRates name the end-to-end metrics whose
	// values follow the machine's speed (see calib.go).
	speedDurations, speedRates []string
	calibs                     []float64 // calibrations interleaved with the jobs
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}}
}

// fail records a correctness failure; any failure fails the run.
func (r *report) fail(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// workloads maps a workload name onto its runner.
var workloads = map[string]func(opt options) (*report, error){
	"solve-ooc":   runSolveOOC,
	"scan-greedy": runScanGreedy,
	"serve-mix":   runServeMix,
}

// Each run builds its inputs at least setupMinReps times and, while that
// takes less than setupMinSeconds in all, again, up to setupMaxReps;
// setup_s is the median build.
const (
	setupMinReps    = 5
	setupMaxReps    = 50
	setupMinSeconds = 1.0
)

func main() {
	if calibrationChild() {
		return
	}
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload name: solve-ooc, scan-greedy or serve-mix")
	fs.Uint64Var(&opt.seed, "seed", 1, "input seed")
	fs.Float64Var(&opt.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&opt.dir, "dir", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	pinRange := fs.String("pin", "", "print pins.go entries for the seeds lo-hi of a batch workload, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pinRange != "" {
		lo, hi, err := parseSeedRange(*pinRange)
		if err == nil {
			err = os.MkdirAll(opt.dir, 0o755)
		}
		if err == nil {
			err = printPins(opt, lo, hi, stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	opt.trace = traceFlag == 1
	run, ok := workloads[opt.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || opt.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (solve-ooc|scan-greedy|serve-mix), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	res, err := execute(run, opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and assembles the result line. Correctness
// problems are listed on stdout ahead of it; an error means no result at
// all (a run in which no job succeeded ends that way too).
func execute(run func(options) (*report, error), opt options, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, err
	}
	env := map[string]any{
		"workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds, "trace": opt.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	envLine, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Fprintf(stdout, "# env %s\n", envLine)

	calibs, err := calibrateN(calibReps)
	if err != nil {
		return nil, err
	}
	rep, err := run(opt)
	if err == nil {
		var after []float64
		if after, err = calibrateN(calibReps); err == nil {
			calib := median(append(append(calibs, rep.calibs...), after...))
			fmt.Fprintf(stdout, "# raw calib_s=%.6f", calib)
			for _, name := range append(rep.speedDurations, rep.speedRates...) {
				fmt.Fprintf(stdout, " %s=%.6g", name, rep.e2e[name].Value)
			}
			fmt.Fprintln(stdout)
			correctSpeed(rep.e2e, rep.speedDurations, rep.speedRates, calib)
			set(rep.layers, "machine.calib_s", calib)
		}
	}
	if rep != nil {
		for _, p := range rep.problems {
			fmt.Fprintf(stdout, "# FAIL %s\n", p)
		}
	}
	if err != nil {
		return nil, err
	}
	names, set := endToEnd, rep.e2e
	if opt.trace {
		names, set = perLayer, rep.layers
	}
	out := map[string]metric{}
	for _, d := range names {
		m, ok := set[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not report metric %s", opt.workload, d.name)
		}
		m.Unit = d.unit
		out[d.name] = m
	}
	if opt.trace {
		path := filepath.Join(opt.dir, fmt.Sprintf("spans-%s-%d.json", opt.workload, opt.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "# spans %d written to %s\n", len(rep.spans), path)
	}
	failed := rep.failed
	if len(rep.problems) > 0 && failed == 0 {
		failed = 1
	}
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1
	}
	return &result{
		Correct:   len(rep.problems) == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   out,
	}, nil
}

// writeSpans dumps the in-memory spans of a traced run as one JSON array.
func writeSpans(path string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// timeSetup runs build as often as the setup constants say and returns
// the median wall time of one build together with the value the last
// build produced. Every build but the last is released with drop.
func timeSetup[T any](build func() (T, error), drop func(T)) (T, float64, error) {
	var walls []float64
	total := 0.0
	for {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		w := time.Since(t0).Seconds()
		walls, total = append(walls, w), total+w
		if len(walls) >= setupMaxReps || (len(walls) >= setupMinReps && total >= setupMinSeconds) {
			return v, median(walls), nil
		}
		drop(v)
	}
}

// secondsSince is time.Since in seconds.
func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }

// median returns the middle value (mean of the middle two) of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// errNoJobs is returned when a run's window completed no job at all.
var errNoJobs = errors.New("no job completed inside the measured window")
