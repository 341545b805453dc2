// Package congest simulates the Congested Clique model: n players, one
// per vertex, proceeding in synchronous rounds; in each round every
// player may send a bounded message to every other player. The simulator
// measures rounds and the maximum message size (in 64-bit words) any
// player sends in a round — the quantities behind the paper's claim that
// its sketches give (1-ε)-approximate weighted b-matching in O(p/ε)
// rounds with O(n^(1/p))-size messages per vertex.
package congest

import (
	"sort"
	"sync"
)

// Message is a payload delivered at the start of the next round.
type Message struct {
	From    int
	Payload []uint64
}

// Handler runs one node for one round: it receives the node id, round
// number and inbox, and sends messages via send. Returning false halts
// the protocol after this round (the protocol stops when every node
// returns false).
type Handler func(node, round int, inbox []Message, send func(to int, payload []uint64)) bool

// Stats reports resource usage.
type Stats struct {
	Rounds          int
	MaxMessageWords int   // largest single message
	MaxNodeOutWords []int // per round: max total words sent by one node
	TotalWords      int
}

// Clique is the simulator. It holds the pending inboxes between rounds,
// so a protocol can be run wholesale (Run) or stepped one synchronous
// round at a time (Step) — the engine's round-loop driver uses the
// latter, so one simulated clique round is one driver round.
type Clique struct {
	N       int
	stats   Stats
	inboxes [][]Message
}

// NewClique creates a clique simulator over n nodes.
func NewClique(n int) *Clique { return &Clique{N: n, inboxes: make([][]Message, n)} }

// Stats returns the accumulated statistics.
func (c *Clique) Stats() Stats { return c.stats }

// Step executes one synchronous round, running the nodes in parallel,
// and reports whether any node is still alive. Message delivery is
// deterministic: inboxes are sorted by sender.
func (c *Clique) Step(handler Handler) bool {
	round := c.stats.Rounds
	c.stats.Rounds++
	next := make([][]Message, c.N)
	outWords := make([]int, c.N)
	var mu sync.Mutex
	var wg sync.WaitGroup
	anyAlive := false
	aliveMu := sync.Mutex{}
	for v := 0; v < c.N; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			alive := handler(v, round, c.inboxes[v], func(to int, payload []uint64) {
				if to < 0 || to >= c.N || to == v {
					return
				}
				cp := append([]uint64(nil), payload...)
				mu.Lock()
				next[to] = append(next[to], Message{From: v, Payload: cp})
				outWords[v] += len(cp)
				if len(cp) > c.stats.MaxMessageWords {
					c.stats.MaxMessageWords = len(cp)
				}
				c.stats.TotalWords += len(cp)
				mu.Unlock()
			})
			if alive {
				aliveMu.Lock()
				anyAlive = true
				aliveMu.Unlock()
			}
		}(v)
	}
	wg.Wait()
	maxOut := 0
	for _, w := range outWords {
		if w > maxOut {
			maxOut = w
		}
	}
	c.stats.MaxNodeOutWords = append(c.stats.MaxNodeOutWords, maxOut)
	for v := range next {
		sort.Slice(next[v], func(i, j int) bool { return next[v][i].From < next[v][j].From })
	}
	c.inboxes = next
	return anyAlive
}
