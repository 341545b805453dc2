package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// contract is the part of BENCHMARK.json the program must honour.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMain lets the test binary serve as its own calibration child, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if calibrationChild() {
		return
	}
	os.Exit(m.Run())
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesProgram pins the metric lists the program prints to
// the ones BENCHMARK.json declares, names and units alike.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	check := func(kind string, defs []metricDef, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(declared) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(declared))
		}
		for i, d := range defs {
			if d.name != declared[i].Name || d.unit != declared[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)",
					kind, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, c.EndToEnd)
	check("per_layer", perLayer, c.PerLayer)
	for _, w := range c.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
}

// TestWorkloadsToy runs every workload at toy size, untraced and traced:
// no job may fail, and every declared metric must be printed.
func TestWorkloadsToy(t *testing.T) {
	c := readContract(t)
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			opt := options{workload: w.Name, seed: 7, seconds: 0.5, trace: trace, dir: t.TempDir(), toy: true}
			var out bytes.Buffer
			res, err := execute(workloads[w.Name], opt, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d (failed_frac must be 0)\n%s",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := len(c.EndToEnd)
			if trace {
				want = len(c.PerLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics printed, want %d", w.Name, trace, len(res.Metrics), want)
			}
		}
	}
}

// TestPinsCoverProofSeeds keeps the pinned seed ranges whole for both
// batch workloads.
func TestPinsCoverProofSeeds(t *testing.T) {
	for w := range batchSpecs {
		for _, r := range [][2]uint64{{0, 127}, {301, 310}} {
			for s := r[0]; s <= r[1]; s++ {
				if _, ok := pins[w][s]; !ok {
					t.Errorf("%s: seed %d has no pin", w, s)
				}
			}
		}
	}
}

func TestParseSeedRange(t *testing.T) {
	for in, want := range map[string][2]uint64{"0-127": {0, 127}, "5": {5, 5}, "301-310": {301, 310}} {
		lo, hi, err := parseSeedRange(in)
		if err != nil || lo != want[0] || hi != want[1] {
			t.Errorf("parseSeedRange(%q) = %d, %d, %v; want %v", in, lo, hi, err, want)
		}
	}
	for _, in := range []string{"", "x", "9-3", "1-"} {
		if _, _, err := parseSeedRange(in); err == nil {
			t.Errorf("parseSeedRange(%q) accepted", in)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*dualPrimal).Round":  "repro/internal/core",
		"repro/internal/sparsify.NewScratch.func1": "repro/internal/sparsify",
		"runtime.mallocgc":                         "runtime",
		"net/http.(*conn).serve":                   "net/http",
		"internal/runtime/maps.(*Map).getWithKey":  "internal/runtime/maps",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
