package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# comment
0 1 2.5
1 2
b 2 4

3 0 7`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("dims n=%d m=%d", g.N(), g.M())
	}
	if g.Edge(0).W != 2.5 || g.Edge(1).W != 1 || g.Edge(2).W != 7 {
		t.Fatalf("weights wrong: %+v", g.Edges())
	}
	if g.B(2) != 4 || g.B(0) != 1 {
		t.Fatal("capacities wrong")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0",            // too few fields
		"0 x",          // bad vertex
		"0 1 abc",      // bad weight
		"-1 2",         // negative id
		"0 0 1",        // self loop (rejected by AddEdge)
		"0 1 -3",       // negative weight
		"b 0",          // short capacity line
		"b 0 0",        // zero capacity
		"b zero 2",     // bad capacity vertex
		"0 1 1\nb 0 x", // bad capacity value
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(20)
		m := r.Intn(3 * n)
		g := GNM(n, m, WeightConfig{Mode: UniformWeights, WMax: 50}, seed)
		for v := 0; v < n; v++ {
			if r.Bernoulli(0.2) {
				g.SetB(v, 1+r.Intn(4))
			}
		}
		var buf bytes.Buffer
		if err := writeEdgeList(&buf, g); err != nil {
			return false
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		if g2.M() != g.M() {
			return false
		}
		for i := range g.Edges() {
			a, b := g.Edge(i), g2.Edge(i)
			if a.U != b.U || a.V != b.V || a.W != b.W {
				return false
			}
		}
		for v := 0; v < g.N(); v++ {
			if v < g2.N() && g.B(v) != g2.B(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCutSubmodularity(t *testing.T) {
	// Cut functions are submodular: f(A) + f(B) >= f(A∪B) + f(A∩B).
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 4 + r.Intn(12)
		g := GNM(n, 2*n, WeightConfig{Mode: UniformWeights, WMax: 9}, seed+3)
		A := make([]bool, n)
		B := make([]bool, n)
		for i := 0; i < n; i++ {
			A[i] = r.Bernoulli(0.5)
			B[i] = r.Bernoulli(0.5)
		}
		un := make([]bool, n)
		in := make([]bool, n)
		for i := 0; i < n; i++ {
			un[i] = A[i] || B[i]
			in[i] = A[i] && B[i]
		}
		lhs := g.CutWeight(A) + g.CutWeight(B)
		rhs := g.CutWeight(un) + g.CutWeight(in)
		return lhs >= rhs-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// writeEdgeList writes g in the format ReadEdgeList accepts.
func writeEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# n=%d m=%d\n", g.N(), g.M())
	for v := 0; v < g.N(); v++ {
		if g.B(v) != 1 {
			fmt.Fprintf(bw, "b %d %d\n", v, g.B(v))
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d %g\n", e.U, e.V, e.W)
	}
	return bw.Flush()
}
