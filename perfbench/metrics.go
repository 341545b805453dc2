package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// metricDef names one metric of the result line and its unit. The two
// lists below are the contract BENCHMARK.json declares; the smoke test
// checks that they agree.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of either path sees. Every workload reports
// every one of them (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s.p50", "s"},
	{"latency_ms.p50", "ms"},
	{"cpu_s_per_job", "s"},
	{"goodput_rps", "1/s"},
	{"passes", "count"},
	{"rounds", "count"},
	{"peak_words", "count"},
	{"cert_ratio", "ratio"},
	{"approx_ratio", "ratio"},
	{"alloc_mb_per_job", "MB"},
	{"rss_peak_mb", "MB"},
}

// perLayer is what the traced run reports. A layer a workload does not
// cross reads 0 there (no span of that layer was recorded).
var perLayer = []metricDef{
	{"engine.init_s", "s"},
	{"engine.round_s.p50", "s"},
	{"engine.round_s.p95", "s"},
	{"core.sample_pass_s", "s"},
	{"core.post_pass_s", "s"},
	{"core.lambda_pass_s", "s"},
	{"core.round_coverage", "ratio"},
	{"core.round_alloc_mb.p50", "MB"},
	{"stream.decode_s", "s"},
	{"stream.consume_s", "s"},
	{"stream.passes", "count"},
	{"stream.edges_per_s", "1/s"},
	{"stream.file_bytes_per_edge", "B"},
	{"serve.queue_ms.p50", "ms"},
	{"serve.queue_ms.p95", "ms"},
	{"serve.solve_ms.p50", "ms"},
	{"serve.solve_ms.p95", "ms"},
	{"serve.overhead_ms.p50", "ms"},
	{"serve.warm_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.budget_trips", "count"},
	{"serve.edges.latency_ms.p50", "ms"},
	{"serve.rbg1.latency_ms.p50", "ms"},
	{"serve.gen.latency_ms.p50", "ms"},
	{"serve.warm.latency_ms.p50", "ms"},
	{"serve.trip.latency_ms.p50", "ms"},
	{"load.lag_ms.p95", "ms"},
	{"load.offered_rps", "1/s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles_per_job", "count"},
	{"latency_ms.p95", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"machine.calib_s", "s"},
	{"cpu.core_s", "s"},
	{"cpu.sparsify_s", "s"},
	{"cpu.matching_s", "s"},
	{"cpu.oddset_s", "s"},
	{"cpu.pack_s", "s"},
	{"cpu.stream_s", "s"},
	{"cpu.graph_s", "s"},
	{"cpu.serve_s", "s"},
	{"cpu.runtime_s", "s"},
	{"cpu.other_s", "s"},
}

// set records a metric value; the unit comes from the definition lists.
func set(m map[string]metric, name string, v float64) { m[name] = metric{Value: v} }

// meters is a snapshot (or a delta) of the process-wide counters the
// benchmark turns into per-job figures: CPU time (user+sys), heap bytes
// allocated, GC cycles, and the runtime's CPU-class split.
type meters struct {
	cpu       float64 // process user+sys seconds
	heapAlloc float64 // cumulative heap bytes allocated
	gcCycles  float64
	gcCPU     float64 // runtime-estimated GC CPU seconds
	totalCPU  float64 // runtime-estimated available CPU seconds
	idleCPU   float64 // runtime-estimated idle CPU seconds
}

var meterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readMeters takes a snapshot of the meters.
func readMeters() meters {
	samples := make([]metrics.Sample, len(meterNames))
	for i, n := range meterNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return meters{
		cpu:       processCPU(),
		heapAlloc: val(0),
		gcCycles:  val(1),
		gcCPU:     val(2),
		totalCPU:  val(3),
		idleCPU:   val(4),
	}
}

// heapAllocBytes reads only the cumulative heap-allocation counter (the
// sample a traced solve takes at every round boundary).
func heapAllocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// sub returns the counter deltas b − a.
func (b meters) sub(a meters) meters {
	return meters{
		cpu:       b.cpu - a.cpu,
		heapAlloc: b.heapAlloc - a.heapAlloc,
		gcCycles:  b.gcCycles - a.gcCycles,
		gcCPU:     b.gcCPU - a.gcCPU,
		totalCPU:  b.totalCPU - a.totalCPU,
		idleCPU:   b.idleCPU - a.idleCPU,
	}
}

// add accumulates deltas.
func (b meters) add(d meters) meters {
	return meters{
		cpu:       b.cpu + d.cpu,
		heapAlloc: b.heapAlloc + d.heapAlloc,
		gcCycles:  b.gcCycles + d.gcCycles,
		gcCPU:     b.gcCPU + d.gcCPU,
		totalCPU:  b.totalCPU + d.totalCPU,
		idleCPU:   b.idleCPU + d.idleCPU,
	}
}

// gcFrac is the share of busy CPU the garbage collector used.
func (b meters) gcFrac() float64 {
	busy := b.totalCPU - b.idleCPU
	if busy <= 0 {
		return 0
	}
	return b.gcCPU / busy
}

// processCPU returns the process's user+sys CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MB; 0 when
// /proc is unavailable.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
