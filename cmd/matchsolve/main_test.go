package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// runCLI invokes the command and returns its stdout, failing on nonzero
// exit or stderr output.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errOut.String())
	}
	if errOut.Len() > 0 {
		t.Fatalf("unexpected stderr: %s", errOut.String())
	}
	return out.String()
}

// checkGolden compares got against the named golden file (creating or
// rewriting it under -update-golden).
func checkGolden(t *testing.T, got, name string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Errorf("CLI output drifted from %s.\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGoldenSmallInstance pins the full CLI output — matching, dual
// certificate, resource stats, verification ratio — on a small seeded
// instance, so any solver or accounting regression trips tier-1.
// Workers is pinned to 1 so the "resolved" line is machine-independent.
func TestGoldenSmallInstance(t *testing.T) {
	got := runCLI(t, "-n", "40", "-m", "200", "-wmax", "20", "-seed", "3",
		"-eps", "0.25", "-p", "2", "-workers", "1", "-verify")
	golden := filepath.Join("testdata", "solve_small.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Errorf("CLI output drifted from golden file.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestBinaryPathMatchesInMemory solves the same instance from an
// edge-list file and from its binary conversion: the two outputs must be
// identical line for line (the backend must not leak into results).
func TestBinaryPathMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	edgelist := filepath.Join(dir, "inst.txt")
	// A deterministic weighted instance with a capacity line.
	var sb strings.Builder
	sb.WriteString("# test instance\nb 0 2\n")
	edges := []string{"0 1 5", "0 2 4.5", "1 2 3", "2 3 7", "3 4 2", "4 5 6", "0 5 1.25", "1 4 2.5"}
	sb.WriteString(strings.Join(edges, "\n") + "\n")
	if err := os.WriteFile(edgelist, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "inst.rbg")
	conv := runCLI(t, "-input", edgelist, "-convert", bin)
	if !strings.Contains(conv, "n=6 m=8 B=7") {
		t.Fatalf("unexpected convert summary: %q", conv)
	}
	fromText := runCLI(t, "-input", edgelist, "-seed", "5", "-workers", "1")
	fromBin := runCLI(t, "-input", bin, "-format", "bin", "-seed", "5", "-workers", "1")
	if fromText != fromBin {
		t.Errorf("binary backend output differs from edge-list backend:\n--- text ---\n%s--- bin ---\n%s", fromText, fromBin)
	}

	// Codec migration: RBG1 -> RBG2 through -convert, then solve all
	// three representations; every output must be identical.
	bin1 := filepath.Join(dir, "inst1.rbg")
	if out := runCLI(t, "-input", edgelist, "-convert", bin1, "-codec", "rbg1"); !strings.Contains(out, "(rbg1)") {
		t.Fatalf("rbg1 convert summary: %q", out)
	}
	bin2 := filepath.Join(dir, "inst2.rbg")
	if out := runCLI(t, "-input", bin1, "-format", "bin", "-convert", bin2); !strings.Contains(out, "(rbg2)") {
		t.Fatalf("migration convert summary: %q", out)
	}
	fromBin1 := runCLI(t, "-input", bin1, "-format", "bin", "-seed", "5", "-workers", "1")
	fromBin2 := runCLI(t, "-input", bin2, "-format", "bin", "-seed", "5", "-workers", "1")
	if fromBin1 != fromText || fromBin2 != fromText {
		t.Errorf("codec migration changed results:\n--- rbg1 ---\n%s--- rbg2 ---\n%s", fromBin1, fromBin2)
	}
}

func TestDIMACSInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "inst.col")
	dimacs := "c tiny triangle plus pendant\np edge 4 4\ne 1 2 3\ne 2 3 2\ne 1 3 1\ne 3 4 5\n"
	if err := os.WriteFile(path, []byte(dimacs), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "-input", path, "-format", "dimacs", "-workers", "1")
	if !strings.Contains(out, "instance        n=4 m=4 B=4") {
		t.Fatalf("DIMACS instance not parsed as expected:\n%s", out)
	}
	// Optimum is edges {1,2} and {3,4}: weight 8; eps=0.25 must find it
	// on a 4-vertex instance.
	if !strings.Contains(out, "weight=8.0000") {
		t.Fatalf("unexpected matching weight:\n%s", out)
	}
}

// TestGoldenJSONOutput pins the -json document — instance, result (with
// baked-in eps), verification — on the same seeded instance as the text
// golden, so the machine-readable surface is as regression-guarded as
// the human one.
func TestGoldenJSONOutput(t *testing.T) {
	got := runCLI(t, "-n", "40", "-m", "200", "-wmax", "20", "-seed", "3",
		"-eps", "0.25", "-p", "2", "-workers", "1", "-verify", "-json")
	var doc map[string]any
	if err := json.Unmarshal([]byte(got), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, got)
	}
	golden := filepath.Join("testdata", "solve_small_json.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Errorf("-json output drifted from golden file.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestBudgetTrippedExit pins the budget-exceeded contract of the CLI: a
// distinct exit code, the axis on stderr, and the best-so-far result
// still printed on stdout.
func TestBudgetTrippedExit(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-n", "40", "-m", "200", "-wmax", "20", "-seed", "3",
		"-eps", "0.25", "-p", "2", "-workers", "1", "-max-rounds", "1"}, &out, &errOut)
	if code != exitBudget {
		t.Fatalf("budget-tripped run exited %d, want %d\nstderr: %s", code, exitBudget, errOut.String())
	}
	if !strings.Contains(errOut.String(), "budget exceeded on rounds") {
		t.Fatalf("stderr missing the tripped axis: %q", errOut.String())
	}
	if !strings.Contains(out.String(), "matching") || !strings.Contains(out.String(), "sampling=1") {
		t.Fatalf("best-so-far result not printed:\n%s", out.String())
	}

	// The JSON surface carries the trip in-band.
	out.Reset()
	errOut.Reset()
	code = run([]string{"-n", "40", "-m", "200", "-wmax", "20", "-seed", "3",
		"-eps", "0.25", "-p", "2", "-workers", "1", "-max-passes", "4", "-json"}, &out, &errOut)
	if code != exitBudget {
		t.Fatalf("JSON budget run exited %d, want %d\nstderr: %s", code, exitBudget, errOut.String())
	}
	var doc struct {
		BudgetExceeded *struct {
			Axis  string `json:"axis"`
			Limit int    `json:"limit"`
			Used  int    `json:"used"`
		} `json:"budgetExceeded"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("budget-tripped -json output invalid: %v\n%s", err, out.String())
	}
	if doc.BudgetExceeded == nil || doc.BudgetExceeded.Axis != "passes" || doc.BudgetExceeded.Limit != 4 {
		t.Fatalf("budgetExceeded not reported in JSON: %+v\n%s", doc.BudgetExceeded, out.String())
	}
}

// TestAlgoListGolden pins the -algo list enumeration of the algorithm
// registry: name, model, guarantee and resource profile per entry.
func TestAlgoListGolden(t *testing.T) {
	got := runCLI(t, "-algo", "list")
	checkGolden(t, got, "algo_list.golden")
	for _, name := range []string{"dual-primal", "greedy", "greedy-augment", "clique-maximal", "hopcroft-karp"} {
		if !strings.Contains(got, name) {
			t.Errorf("-algo list missing %q:\n%s", name, got)
		}
	}
}

// TestGoldenAlgoSelection pins a non-default substrate end to end
// through -algo: the algorithm line, its matching, and the shared
// resource stats on the same seeded instance as the main golden.
func TestGoldenAlgoSelection(t *testing.T) {
	got := runCLI(t, "-n", "40", "-m", "200", "-wmax", "20", "-seed", "3",
		"-workers", "1", "-algo", "greedy-augment", "-verify")
	checkGolden(t, got, "algo_greedy_augment.golden")
	if !strings.Contains(got, "algorithm       greedy-augment") {
		t.Errorf("algorithm line missing:\n%s", got)
	}
}

// TestVerifyIsExactOnLargeInstance pins -verify's optimum to exact
// blossom's weight on 1 300 vertices, a size the offline solver's
// default dispatch answers greedily.
func TestVerifyIsExactOnLargeInstance(t *testing.T) {
	var doc struct {
		Verification *verification `json:"verification"`
	}
	got := runCLI(t, "-n", "1300", "-m", "4000", "-wmax", "20", "-seed", "5",
		"-workers", "1", "-algo", "greedy", "-verify", "-json")
	if err := json.Unmarshal([]byte(got), &doc); err != nil {
		t.Fatal(err)
	}
	g := graph.GNM(1300, 4000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 20}, 5)
	_, want := matching.MaxWeightMatchingFloat(g, false)
	if doc.Verification == nil || doc.Verification.Optimum != want {
		t.Fatalf("-verify optimum = %+v, exact blossom weight %v", doc.Verification, want)
	}
	if greedy := matching.Greedy(g).Weight(g); greedy == want {
		t.Fatalf("greedy weight %v equals the optimum: the instance does not tell them apart", greedy)
	}
}

// TestGoldenRepeatWarmDuals pins the -repeat/-warm-duals surface: one
// session re-solving the same instance, per-iteration lines making the
// warm-start savings visible (iteration 1 is cold, iteration 2 installs
// the snapshot and drops rounds, later iterations converge in one
// round), and the final full report coming from the last iteration.
func TestGoldenRepeatWarmDuals(t *testing.T) {
	got := runCLI(t, "-n", "40", "-m", "200", "-wmax", "20", "-seed", "3",
		"-eps", "0.3", "-p", "2", "-workers", "1", "-repeat", "4", "-warm-duals")
	checkGolden(t, got, "repeat_warm_duals.golden")
	if !strings.Contains(got, "iter=1/4") || !strings.Contains(got, "iter=4/4") {
		t.Errorf("per-iteration lines missing:\n%s", got)
	}
	if !strings.Contains(got, "warm=false") || !strings.Contains(got, "warm=true") {
		t.Errorf("warm flags missing from iteration lines:\n%s", got)
	}
	// Without -warm-duals the repeats stay cold — the session is reused
	// but every iteration rebuilds the initial solution.
	cold := runCLI(t, "-n", "40", "-m", "200", "-wmax", "20", "-seed", "3",
		"-eps", "0.3", "-p", "2", "-workers", "1", "-repeat", "2")
	if strings.Contains(cold, "warm=true") {
		t.Errorf("-repeat without -warm-duals warm-started:\n%s", cold)
	}
}

func TestBadRepeatFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-repeat", "0"}, &out, &errOut); code != 2 {
		t.Fatalf("-repeat 0 exited %d, want 2", code)
	}
	// -warm-duals with nothing to seed from is a usage error, not a
	// silent cold run.
	errOut.Reset()
	if code := run([]string{"-warm-duals"}, &out, &errOut); code != 2 {
		t.Fatalf("-warm-duals without -repeat exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-repeat") {
		t.Fatalf("stderr should explain the -repeat requirement: %q", errOut.String())
	}
}

// TestAlgoBudgetUniform pins that budgets work identically through
// every substrate: a 1-round budget trips the multi-round
// greedy-augment run with the standard exit code and stderr axis.
func TestAlgoBudgetUniform(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-n", "40", "-m", "200", "-seed", "3", "-workers", "1",
		"-algo", "greedy-augment", "-max-rounds", "1"}, &out, &errOut)
	if code != exitBudget {
		t.Fatalf("budget-tripped run exited %d, want %d\nstderr: %s", code, exitBudget, errOut.String())
	}
	if !strings.Contains(errOut.String(), "budget exceeded on rounds") {
		t.Fatalf("stderr missing the tripped axis: %q", errOut.String())
	}
	if !strings.Contains(out.String(), "matching") {
		t.Fatalf("best-so-far result not printed:\n%s", out.String())
	}
}

func TestUnknownAlgoFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-algo", "nope"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown -algo exited %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "registered") {
		t.Fatalf("stderr should list the registered algorithms: %q", errOut.String())
	}
}

func TestBadFlagsFail(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-dist", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("bad -dist exited %d, want 2", code)
	}
	if code := run([]string{"-input", "/no/such/file"}, &out, &errOut); code != 1 {
		t.Fatalf("missing input exited %d, want 1", code)
	}
}
