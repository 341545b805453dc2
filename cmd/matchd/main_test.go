package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlagsAndConfig pins the exit-code contract: usage errors exit
// 2, configuration the solver rejects exits 1.
func TestBadFlagsAndConfig(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"-eps", "0.9"}, &out, &errb); code != 1 {
		t.Errorf("invalid eps: exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "eps") {
		t.Errorf("stderr does not mention eps: %s", errb.String())
	}
}
