package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestDirtyModule runs the CLI against the fixture module: dirty.go
// violates maprange, noclock and errwrapbudget; dead.go exports a
// test-only Helper, carries a bare //lint:deadexport, and has two
// methods that only its test reaches, through an interface literal and
// an interface type the test declares; its justified directive and its
// methods reached through a named interface and an interface literal in
// main.go draw no finding.
func TestDirtyModule(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "testdata/dirtymod", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"[maprange]", "[noclock]", "[errwrapbudget]",
		"[deadexport] exported Helper ", "exported Box.Probe ", "exported Box.Peek ",
		"exported BareFixture is referenced by no non-test code: delete it, move it into the test that uses it, or justify keeping it with //lint:deadexport (bare //lint:deadexport needs a justification)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing a %s finding:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n"); n != 7 {
		t.Errorf("got %d findings, want 7:\n%s", n, out)
	}
}

func TestOnlyFlagFilters(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "testdata/dirtymod", "-only", "noclock", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if strings.Count(out, "\n") != 1 || !strings.Contains(out, "[noclock]") {
		t.Errorf("-only noclock should report exactly the clock finding:\n%s", out)
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing diagnosis: %s", stderr.String())
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	for _, a := range analysis.All() {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing %s", a.Name)
		}
	}
}

// TestRepoIsClean is the enforcement point: the whole repository must
// pass every analyzer, so a regression fails tier-1 `go test ./...`
// even when nobody remembers to run `make lint`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the full repo")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", "../.."}, &stdout, &stderr); code != 0 {
		t.Fatalf("matchlint over the repo exited %d\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}
