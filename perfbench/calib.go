package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on shared machines whose speed drifts: on the 2-CPU
// box it was tuned on, the median solve of one run took 2.8 s and of the
// next 3.7 s, and process CPU time per solve moved with it, so no run
// length or median within a run can hide it. Each run therefore times a
// fixed task that uses only the standard library — allocation, map
// inserts, a sort and hashing — several times before and after its
// window, and the batch workloads once more before every job. The batch
// workloads report their wall-time end-to-end metrics at the reference
// speed: measured × referenceCalib / median calibration time. The raw
// figures are printed on the `# raw` line and the calibration time is the
// per-layer machine.calib_s.
//
// The task runs in a child process of its own (this binary, started with
// calibEnv set), while the benchmark waits for it: it shares no heap, GC
// state or goroutines with the program under test, so no change to the
// repository can alter it, and a faster program still reads faster.

// referenceCalib is calibrate's time on a calm box (the median over
// repeated runs on the 2-CPU machine the benchmark was tuned on).
const referenceCalib = 0.075

// calibReps is how many times the task runs on each side of a window.
const calibReps = 5

// calibEnv, set in a process's environment, makes it run the task once,
// print its wall time in seconds and exit.
const calibEnv = "PERFBENCH_CALIBRATE"

var calibSink byte

// calibrate runs the fixed task once and returns its wall time.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	h := sha256.New()
	var buf [8]byte
	for rep := 0; rep < 4; rep++ {
		keys := make([]uint64, 1<<16)
		m := make(map[uint64]uint32)
		for i := range keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keys[i] = x
			m[x&0xffff]++
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			binary.LittleEndian.PutUint64(buf[:], k)
			h.Write(buf[:])
		}
		calibSink += byte(len(m))
	}
	calibSink += h.Sum(nil)[0]
	return time.Since(t0).Seconds()
}

// calibrationChild reports whether this process is a calibration child;
// if it is, it has already run the task and printed the time.
func calibrationChild() bool {
	if os.Getenv(calibEnv) != "1" {
		return false
	}
	fmt.Printf("%.9f\n", calibrate())
	return true
}

// calibrateProc runs the task once in a child process and returns its
// wall time, waiting for the child to end.
func calibrateProc() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), calibEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("calibration process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// calibrateN runs the task n times, each in its own child process.
func calibrateN(n int) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t, err := calibrateProc()
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// correctSpeed rescales the machine-speed-bound metrics a workload named
// by referenceCalib/calib: a duration (CPU time included, which drifted
// with the wall time) scales with the machine's slowness, a rate
// inversely.
func correctSpeed(m map[string]metric, durations, rates []string, calib float64) {
	f := referenceCalib / calib
	for _, name := range durations {
		v := m[name]
		v.Value *= f
		m[name] = v
	}
	for _, name := range rates {
		v := m[name]
		v.Value /= f
		m[name] = v
	}
}
