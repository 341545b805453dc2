package mapreduce

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"testing"

	"repro/internal/graph"
)

// TestConnectedComponentsMRDeterministic pins the sorted-representative
// walk in the post-processing Boruvka: unions used to apply in uf.Sets()
// map order, so the union-find shape (and with it which vertex
// represents each component) could differ run to run.
func TestConnectedComponentsMRDeterministic(t *testing.T) {
	g := graph.GNM(40, 90, graph.WeightConfig{}, 41)
	var ref []int
	for trial := 0; trial < 10; trial++ {
		c := NewCluster(4)
		uf, _ := ConnectedComponentsMR(c, g, 17)
		roots := make([]int, g.N())
		for v := 0; v < g.N(); v++ {
			roots[v] = uf.Find(v)
		}
		if trial == 0 {
			ref = roots
			continue
		}
		for v := range roots {
			if roots[v] != ref[v] {
				t.Fatalf("trial %d: vertex %d has root %d, first run had %d", trial, v, roots[v], ref[v])
			}
		}
	}
}

// TestConnectedComponentsMRPinned pins the union-find labels and the
// cluster stats of the two-round pipeline on connected and disconnected
// seeded instances, so a change to the post-processing Boruvka driver
// must reproduce the recorded forest exactly, not only its component
// count.
func TestConnectedComponentsMRPinned(t *testing.T) {
	cases := []struct {
		name     string
		g        *graph.Graph
		machines int
		seed     uint64
		want     string
	}{
		{"gnm-50-120", graph.GNM(50, 120, graph.WeightConfig{}, 91), 8, 17, "331e52a25b6edeb2"},
		{"gnp-120-0.5", graph.GNP(120, 0.5, graph.WeightConfig{}, 29), 16, 31, "19350e3b68fc5a8c"},
		{"gnm-200-150", graph.GNM(200, 150, graph.WeightConfig{}, 5), 4, 7, "fbd5fe7144b668a8"},
		{"gnm-300-280", graph.GNM(300, 280, graph.WeightConfig{}, 11), 8, 13, "9a932d219a55ae69"},
	}
	for _, tc := range cases {
		uf, stats := ConnectedComponentsMR(NewCluster(tc.machines), tc.g, tc.seed)
		h := sha256.New()
		for v := 0; v < tc.g.N(); v++ {
			fmt.Fprintf(h, "%d,", uf.Find(v))
		}
		fmt.Fprintf(h, "|%d|%+v", uf.Components(), stats)
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != tc.want {
			t.Errorf("%s: digest %s, want %s (components %d)", tc.name, got, tc.want, uf.Components())
		}
	}
}
