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

// closedFormLevel is Level as the closed form of Definition 3 computes
// it, with no table: the reference the table-driven Level must equal on
// every float64.
func closedFormLevel(s *Scheme, w float64) (int, bool) {
	scaled := w * s.B / s.WStar
	if scaled < 1 {
		return 0, false
	}
	k := int(math.Floor(math.Log(scaled)/math.Log1p(s.Eps) + 1e-12))
	if k > s.L {
		k = s.L
	}
	return k, true
}

// TestLevelEqualsClosedForm checks the table-driven Level against the
// closed form on random weights, on every float within 4 096 ulps of each
// level boundary, just outside each boundary's guard band (where the
// table answers alone), at each cell's lowest float, and at W*.
func TestLevelEqualsClosedForm(t *testing.T) {
	r := xrand.New(21)
	for _, eps := range []float64{0.01, 0.05, 0.1, 0.25, 0.3, 0.49, 1} {
		for _, b := range []int{1, 2, 7, 640, 1 << 16, 1 << 20} {
			wstar := 1 + 99*r.Float64()
			s := mustScheme(t, eps, wstar, b)
			if s.cells == nil {
				t.Fatalf("eps=%v B=%d: no table", eps, b)
			}
			check := func(w float64) {
				gk, gok := s.Level(w)
				if wk, wok := closedFormLevel(s, w); gk != wk || gok != wok {
					t.Fatalf("eps=%v B=%d W*=%v: Level(%v) = (%d, %v), closed form (%d, %v)",
						eps, b, wstar, w, gk, gok, wk, wok)
				}
			}
			// ulps steps w by d units in the last place (w > 0).
			ulps := func(w float64, d int64) float64 {
				return math.Float64frombits(uint64(int64(math.Float64bits(w)) + d))
			}
			check(wstar)
			for i := 0; i < 2000; i++ {
				check(wstar * math.Pow(r.Float64(), 3) * 1.5)
			}
			unit := wstar / s.B
			for k := 1; k <= s.L+1; k++ {
				w := unit * s.WHat(k)
				for d := int64(-4096); d <= 4096; d++ {
					check(ulps(w, d))
				}
				for _, edge := range []float64{w * (1 - 1.01*levelGuard), w * (1 + 1.01*levelGuard)} {
					for d := int64(-64); d <= 64; d++ {
						check(ulps(edge, d))
					}
				}
			}
			for c := range s.cells {
				lo := math.Float64frombits(uint64(c+1023<<8) << cellShift)
				for d := int64(-2); d <= 2; d++ {
					check(ulps(lo*unit, d))
				}
			}
		}
	}
}
