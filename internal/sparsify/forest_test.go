package sparsify

import (
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// processLinear is process without the one-test rejection: a Union
// attempt in every forest of a level, first to last.
func processLinear(c *construction, edgeIdx, id int, u, v int32) bool {
	lv := c.levelOf(edgeIdx)
	storedAny := false
	for i := 0; i <= lv && i < c.numLv; i++ {
		forests := c.ufs[i]
		placed := false
		for j := 0; j < len(forests); j++ {
			if forests[j].Union(int(u), int(v)) {
				c.stored[i] = append(c.stored[i], id)
				placed = true
				break
			}
		}
		if placed {
			storedAny = true
			continue
		}
		if len(forests) < c.cfg.K {
			nf := c.newForest()
			nf.Union(int(u), int(v))
			c.ufs[i] = append(forests, nf)
			c.stored[i] = append(c.stored[i], id)
			storedAny = true
		}
	}
	return storedAny
}

// checkForestsNest fails unless, at every level, forest j's partition
// refines forest j-1's: every vertex is joined in forest j-1 to its own
// root in forest j, so a forest-j component never spans two forest-(j-1)
// components.
func checkForestsNest(t *testing.T, c *construction, label string) {
	t.Helper()
	for lv, forests := range c.ufs {
		for j := 1; j < len(forests); j++ {
			for x := 0; x < c.n; x++ {
				if !forests[j-1].Same(x, forests[j].Find(x)) {
					t.Fatalf("%s: level %d: forest %d does not refine forest %d at vertex %d", label, lv, j, j-1, x)
				}
			}
		}
	}
}

// TestForestsNestAndProcessMatchesLinearScan streams random multigraphs,
// parallel edges included, through constructions with several K: the
// forests stay nested at every level throughout, and process stores
// exactly the ids the linear scan over all K forests stores.
func TestForestsNestAndProcessMatchesLinearScan(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := xrand.New(seed)
		n := 6 + r.Intn(40)
		m := 50 + r.Intn(700)
		edges := make([][2]int32, m)
		for i := range edges {
			if i > 0 && r.Intn(4) == 0 {
				edges[i] = edges[r.Intn(i)] // a parallel edge
				continue
			}
			u := r.Intn(n)
			v := r.Intn(n - 1)
			if v >= u {
				v++
			}
			edges[i] = [2]int32{int32(u), int32(v)}
		}
		for _, k := range []int{1, 2, 3, 6} {
			cfg := Config{K: k, Seed: seed*100 + uint64(k)}
			fast, slow := new(construction), new(construction)
			fast.reset(n, m, cfg, nil)
			slow.reset(n, m, cfg, nil)
			for i, e := range edges {
				got := fast.process(i, i, e[0], e[1])
				if want := processLinear(slow, i, i, e[0], e[1]); got != want {
					t.Fatalf("seed %d K %d edge %d: process stored=%v, linear scan stored=%v", seed, k, i, got, want)
				}
				if i%7 == 0 {
					checkForestsNest(t, fast, "process")
				}
			}
			checkForestsNest(t, fast, "process")
			checkForestsNest(t, slow, "linear scan")
			if !reflect.DeepEqual(fast.stored, slow.stored) {
				t.Fatalf("seed %d K %d: process stored %v, linear scan stored %v", seed, k, fast.stored, slow.stored)
			}
		}
	}
}
