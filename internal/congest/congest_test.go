package congest

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/stream"
)

// run executes the protocol for at most maxRounds rounds, stopping early
// once every node has halted.
func run(c *Clique, maxRounds int, handler Handler) {
	for round := 0; round < maxRounds; round++ {
		if !c.Step(handler) {
			return
		}
	}
}

func TestCliquePingPong(t *testing.T) {
	c := NewClique(2)
	var got []uint64
	run(c, 4, func(node, round int, inbox []Message, send func(int, []uint64)) bool {
		if node == 0 && round == 0 {
			send(1, []uint64{42, 43})
			return true
		}
		if node == 1 && round == 1 {
			for _, m := range inbox {
				got = append(got, m.Payload...)
			}
			send(0, []uint64{44})
			return true
		}
		return round < 2
	})
	if len(got) != 2 || got[0] != 42 {
		t.Fatalf("payload lost: %v", got)
	}
	st := c.Stats()
	if st.MaxMessageWords != 2 || st.TotalWords != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCliqueHaltsWhenAllDone(t *testing.T) {
	c := NewClique(3)
	run(c, 100, func(node, round int, _ []Message, _ func(int, []uint64)) bool {
		return round < 2
	})
	if c.Stats().Rounds > 4 {
		t.Fatalf("did not halt: %d rounds", c.Stats().Rounds)
	}
}

func TestCliqueNoSelfOrOutOfRangeSend(t *testing.T) {
	c := NewClique(2)
	var delivered int64 // nodes run concurrently: count atomically
	run(c, 2, func(node, round int, inbox []Message, send func(int, []uint64)) bool {
		if round == 0 {
			send(node, []uint64{1})   // self: dropped
			send(99, []uint64{1})     // out of range: dropped
			send(1-node, []uint64{1}) // valid
			return true
		}
		atomic.AddInt64(&delivered, int64(len(inbox)))
		return false
	})
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
}

func TestCliqueMatchingMaximal(t *testing.T) {
	g := graph.GNM(60, 500, graph.WeightConfig{}, 37)
	res := MaximalMatchingClique(g, 2, 41, 0)
	// Convert to a Matching over g for validation.
	bestIdx := map[uint64]int{}
	for i, e := range g.Edges() {
		bestIdx[e.Key()] = i
	}
	m := &matching.Matching{Mult: []int{}}
	for i, pr := range res.Pairs {
		m.EdgeIdx = append(m.EdgeIdx, bestIdx[graph.KeyOf(pr[0], pr[1])])
		m.Mult = append(m.Mult, res.Mults[i])
	}
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !m.IsMaximal(g) {
		t.Fatal("clique matching not maximal")
	}
}

func TestCliqueMessageBudget(t *testing.T) {
	g := graph.GNM(100, 3000, graph.WeightConfig{}, 43)
	p := 2.0
	res := MaximalMatchingClique(g, p, 47, 0)
	budget := int(math.Ceil(math.Pow(float64(g.N()), 1/p)))
	if res.MaxSampleMsgWords > budget {
		t.Fatalf("sample message %d exceeds budget %d", res.MaxSampleMsgWords, budget)
	}
}

func TestCliqueMatchesFilteringQuality(t *testing.T) {
	// The clique protocol is the distributed twin of the filtering
	// algorithm; both produce maximal matchings, so sizes are within 2x
	// of each other (both within 2x of maximum).
	g := graph.GNM(80, 1200, graph.WeightConfig{}, 53)
	res := MaximalMatchingClique(g, 2, 59, 0)
	s := stream.NewEdgeStream(g)
	fm, _ := matching.MaximalMatchingFilter(s, 2, 61, nil)
	cliqueSize := len(res.Pairs)
	if cliqueSize*2 < fm.Size() || fm.Size()*2 < cliqueSize {
		t.Fatalf("sizes diverge: clique %d filter %d", cliqueSize, fm.Size())
	}
}

func TestCliqueBMatching(t *testing.T) {
	g := graph.GNM(40, 300, graph.WeightConfig{}, 67)
	graph.WithRandomB(g, 3, false, 71)
	res := MaximalMatchingClique(g, 2, 73, 0)
	bestIdx := map[uint64]int{}
	for i, e := range g.Edges() {
		bestIdx[e.Key()] = i
	}
	m := &matching.Matching{Mult: []int{}}
	for i, pr := range res.Pairs {
		m.EdgeIdx = append(m.EdgeIdx, bestIdx[graph.KeyOf(pr[0], pr[1])])
		m.Mult = append(m.Mult, res.Mults[i])
	}
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if !m.IsMaximal(g) {
		t.Fatal("clique b-matching not maximal")
	}
}
