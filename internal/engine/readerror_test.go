package engine_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/stream"
)

// TestReadErrorSurfacesAsError drives an algorithm of the table over a
// file whose bytes vanish mid-solve: the FileSource sweep panics with a
// typed *stream.ReadError, and the engine must convert it into an
// ordinary error with a best-so-far outcome — a bad file fails one
// solve, it does not take down the process (or a serving pool).
func TestReadErrorSurfacesAsError(t *testing.T) {
	g := conformanceGraph()
	path := filepath.Join(t.TempDir(), "g.rbg")
	if err := stream.WriteBinaryFile(path, stream.NewEdgeStream(g)); err != nil {
		t.Fatal(err)
	}
	src, err := stream.OpenBinaryWith(path, stream.OpenOptions{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// Truncate underneath the open handle: the first sweep's ReadAt
	// fails, exactly like a disk or network-filesystem fault mid-solve.
	if err := os.Truncate(path, 24); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dual-primal", "greedy"} {
		t.Run(name, func(t *testing.T) {
			out, err := drive(t, name, context.Background(), src, engine.Extensions{})
			var re *stream.ReadError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v (%T), want *stream.ReadError", err, err)
			}
			if re.Path != path {
				t.Errorf("ReadError.Path = %q, want %q", re.Path, path)
			}
			if out == nil || out.Matching == nil {
				t.Fatal("aborted run did not return a best-so-far outcome")
			}
			if out.Lambda != 0 {
				t.Errorf("aborted run kept a certificate: Lambda = %v", out.Lambda)
			}
		})
	}
}
