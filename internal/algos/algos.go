// Package algos is the module's table of matching algorithms: one
// name-sorted entry per substrate, each built from the same
// core.Options and run by engine.Solve. The dual-primal entry is
// core.New itself; the others are this package's ports of the
// non-dual-primal substrates onto the engine.Algorithm contract: the
// semi-streaming one-pass greedy (with and without short-augmentation
// passes), the congested-clique maximal matching protocol, and the exact
// Hopcroft–Karp bipartite baseline. Each adapter pays for its matching
// in the paper's currency — metered passes, driver rounds, accountant
// words — so every algorithm answers a solve with comparable resource
// stats, honors budgets with best-so-far semantics, and aborts within a
// pass on cancellation, exactly like the dual-primal solver.
package algos

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/stream"
)

// Info describes one algorithm of the table for enumeration: it is how
// tooling (match.Algorithms, matchsolve -algo list, bench E16) learns
// what substrates exist and how they pay for a matching.
type Info struct {
	// Name is the table key (kebab-case, e.g. "dual-primal").
	Name string `json:"name"`
	// Model is the model of computation the algorithm belongs to
	// (semi-streaming, congested clique, offline, ...).
	Model string `json:"model"`
	// Guarantee states the approximation guarantee.
	Guarantee string `json:"guarantee"`
	// Resources is the resource profile in the paper's currency: passes,
	// rounds, central words.
	Resources string `json:"resources"`
}

// entry is one row of the table: what the algorithm is, and how to
// build a fresh instance of it from the solver options. Each builder
// reads only the options its algorithm interprets.
type entry struct {
	info  Info
	build func(core.Options) (engine.Algorithm, error)
}

// table lists every algorithm, sorted by name.
var table = []entry{
	{Info{
		Name:      "clique-maximal",
		Model:     "congested clique (simulated)",
		Guarantee: "maximal b-matching (1/2 of maximum cardinality)",
		Resources: "O(p) clique rounds, O(n^(1/p)) words/message, full graph at the nodes",
	}, func(o core.Options) (engine.Algorithm, error) {
		return &cliqueAlg{p: o.P, seed: o.Seed, maxRounds: o.MaxRounds}, nil
	}},
	{Info{
		Name:      "dual-primal",
		Model:     "semi-streaming / MPC / clique (Ahn–Guha)",
		Guarantee: "(1-O(ε))·OPT weighted b-matching + dual certificate",
		Resources: "O(n^(1+1/p)) words, O(p/ε) rounds, 3+2·rounds passes",
	}, core.New},
	{Info{
		Name:      "greedy",
		Model:     "semi-streaming",
		Guarantee: "maximal (1/2 of maximum cardinality)",
		Resources: "1 pass, 1 round, O(n) words",
	}, func(core.Options) (engine.Algorithm, error) {
		return &greedyAlg{}, nil
	}},
	{Info{
		Name:      "greedy-augment",
		Model:     "semi-streaming",
		Guarantee: "toward 2/3 of maximum cardinality (length-3 augmentation)",
		Resources: "1+2·rounds passes, O(n) words",
	}, func(o core.Options) (engine.Algorithm, error) {
		rounds := o.MaxRounds
		if rounds == 0 {
			rounds = defaultAugmentRounds
		}
		return &greedyAlg{augmentRounds: rounds}, nil
	}},
	{Info{
		Name:      "hopcroft-karp",
		Model:     "offline (exact baseline)",
		Guarantee: "maximum cardinality, bipartite unit capacities",
		Resources: "1 pass, O(sqrt(n)) phases, full graph in memory",
	}, func(core.Options) (engine.Algorithm, error) {
		return &hkAlg{}, nil
	}},
}

// List returns every algorithm's Info, sorted by name.
func List() []Info {
	out := make([]Info, len(table))
	for i, e := range table {
		out[i] = e.info
	}
	return out
}

// Check returns nil when name is in the table, and otherwise the error
// New would return for it.
func Check(name string) error {
	_, err := lookup(name)
	return err
}

// New builds a fresh instance of the named algorithm from opt.
func New(name string, opt core.Options) (engine.Algorithm, error) {
	e, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return e.build(opt)
}

// lookup finds name's entry; the error for a name not in the table
// lists every name that is.
func lookup(name string) (entry, error) {
	for _, e := range table {
		if e.info.Name == name {
			return e, nil
		}
	}
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.info.Name
	}
	return entry{}, fmt.Errorf("unknown algorithm %q (registered: %s)", name, strings.Join(names, ", "))
}

// graphWords estimates the central storage of a fully materialized
// graph: one edge record plus two adjacency entries per edge, one
// capacity word per vertex. Algorithms that must hold the whole input
// (the clique coordinator's snapshot, the exact baseline) charge this to
// the accountant so their space axis honestly dwarfs the streaming
// algorithms' — that gap is the paper's point, not an accounting leak.
func graphWords(g *graph.Graph) int { return 4*g.M() + g.N() }

// materialize reads the whole source into memory as one metered pass
// and charges the materialization to the run's accountant.
func materialize(run *engine.Run, src stream.Source) *graph.Graph {
	g := stream.Materialize(src)
	run.Acct.Alloc(graphWords(g))
	return g
}
