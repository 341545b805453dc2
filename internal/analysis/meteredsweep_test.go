package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestMeteredSweep(t *testing.T) {
	diags := analysistest.Run(t, "testdata", "repro/internal/algos", analysis.MeteredSweep)
	if len(diags) != 3 {
		t.Errorf("got %d diagnostics, want 3: %v", len(diags), diags)
	}
}

func TestMeteredSweepStreamExempt(t *testing.T) {
	diags := analysistest.Run(t, "testdata", "repro/internal/stream", analysis.MeteredSweep)
	if len(diags) != 0 {
		t.Errorf("internal/stream owns the raw sweeps, got: %v", diags)
	}
}

func TestMeteredSweepBlocks(t *testing.T) {
	diags := analysistest.Run(t, "testdata", "repro/internal/semistream", analysis.MeteredSweep)
	if len(diags) != 2 {
		t.Errorf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
}
