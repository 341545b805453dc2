package levels

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func mustScheme(t *testing.T, eps, wstar float64, b int) *Scheme {
	t.Helper()
	s, err := NewScheme(eps, wstar, b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemeValidation(t *testing.T) {
	if _, err := NewScheme(0, 1, 1); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := NewScheme(0.5, 0, 1); err == nil {
		t.Fatal("W*=0 accepted")
	}
	if _, err := NewScheme(0.5, 1, 0); err == nil {
		t.Fatal("B=0 accepted")
	}
}

func TestLevelBrackets(t *testing.T) {
	// Definition 3: (W*/B)·ŵ_k <= w < (W*/B)·ŵ_{k+1}.
	s := mustScheme(t, 0.25, 100, 50)
	unit := s.WStar / s.B // 2
	for k := 0; k <= s.L; k++ {
		w := unit * s.WHat(k) * 1.0001
		got, ok := s.Level(w)
		if !ok || got != k {
			t.Fatalf("level of %f: got %d ok=%v, want %d", w, got, ok, k)
		}
	}
}

func TestLevelDropsTinyEdges(t *testing.T) {
	s := mustScheme(t, 0.25, 100, 50)
	if _, ok := s.Level(1.9); ok { // below W*/B = 2
		t.Fatal("tiny edge not dropped")
	}
	if _, ok := s.Level(2.0); !ok {
		t.Fatal("boundary edge dropped")
	}
}

func TestMaxWeightTopLevel(t *testing.T) {
	for _, eps := range []float64{0.1, 0.25, 0.5} {
		for _, b := range []int{2, 10, 1000} {
			s := mustScheme(t, eps, 7.5, b)
			k, ok := s.Level(s.WStar)
			if !ok {
				t.Fatalf("W* dropped (eps=%f B=%d)", eps, b)
			}
			if k != s.L {
				t.Fatalf("W* at level %d, want L=%d (eps=%f B=%d)", k, s.L, eps, b)
			}
		}
	}
}

func TestRescaleLowerBound(t *testing.T) {
	// The level weight underestimates by at most (1+eps): ŵ <= scaled < (1+eps)ŵ.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		eps := 0.1 + r.Float64()*0.4
		s, err := NewScheme(eps, 50, 20)
		if err != nil {
			return false
		}
		for i := 0; i < 100; i++ {
			w := 50 * math.Pow(r.Float64(), 2) // spread across range
			if w <= 0 {
				continue
			}
			k, ok := s.Level(w)
			if !ok {
				continue
			}
			hat := s.WHat(k)
			scaled := w * s.B / s.WStar
			if hat > scaled*(1+1e-9) || scaled >= hat*(1+eps)*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNumLevelsIsLogB(t *testing.T) {
	s := mustScheme(t, 0.5, 1, 1024)
	want := int(math.Floor(math.Log(1024)/math.Log(1.5))) + 1
	if s.NumLevels() != want {
		t.Fatalf("NumLevels = %d, want %d", s.NumLevels(), want)
	}
}

// TestPartitionCoversKeptEdges checks that the level classes Ê_k
// partition the kept edges: every edge of weight at least W*/B lands in
// a level in [0, NumLevels()), and every lighter edge is dropped.
func TestPartitionCoversKeptEdges(t *testing.T) {
	g := graph.GNM(40, 150, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 50}, 11)
	s := mustScheme(t, 0.25, g.MaxWeight(), g.TotalB())
	for i, e := range g.Edges() {
		k, ok := s.Level(e.W)
		if kept := e.W*s.B/s.WStar >= 1; ok != kept {
			t.Fatalf("edge %d (w=%v): kept=%v, want %v", i, e.W, ok, kept)
		}
		if ok && (k < 0 || k >= s.NumLevels()) {
			t.Fatalf("edge %d in level %d outside [0, %d)", i, k, s.NumLevels())
		}
	}
}

func TestDroppedWeightSmall(t *testing.T) {
	// With B >= n, dropped edges each have weight < W*/B, so the dropped
	// total is < m * W*/B.
	g := graph.GNM(30, 100, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 1000}, 12)
	s := mustScheme(t, 0.25, g.MaxWeight(), g.TotalB())
	limit := float64(g.M()) * s.WStar / s.B
	d := 0.0
	for _, e := range g.Edges() {
		if _, ok := s.Level(e.W); !ok {
			d += e.W
		}
	}
	if d >= limit {
		t.Fatalf("dropped weight %f >= bound %f", d, limit)
	}
}

func TestUnscaleRoundTrip(t *testing.T) {
	s := mustScheme(t, 0.25, 80, 40)
	for _, w := range []float64{2.5, 10, 79.9, 80} {
		k, ok := s.Level(w)
		if !ok {
			t.Fatalf("weight %f dropped", w)
		}
		back := s.Unscale(s.WHat(k))
		if back > w*(1+1e-9) || back < w/(1+s.Eps)*(1-1e-9) {
			t.Fatalf("unscale(%f) = %f not within (w/(1+eps), w]", w, back)
		}
	}
}
