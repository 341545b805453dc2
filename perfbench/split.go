package main

import (
	"strings"
	"time"
)

// split is one traced solve cut at its round boundaries and passes.
type split struct {
	init                 float64
	rounds               []float64 // wall seconds per round
	roundAlloc           []float64 // MB allocated per round
	sample, post, lambda float64   // summed over rounds (dual-primal only)
	covered, roundTotal  float64   // sample+post+λ and Σ round walls
	decode, consume      float64
	passWall             float64
	edges                int
}

// splitSolve cuts a traced solve into Init (Solve start to the first
// RoundEvent) and rounds (one RoundEvent to the next; the last ends
// with the solve), attributes every pass to the interval it started in,
// and records the spans. For the dual-primal solver each round holds
// exactly two metered passes — the sampling pass and the λ pass — and
// the gap between them is the post-pass phase: seal, offline solve and
// the refine/Mini/Micro oracle loop, with no input access.
func splitSolve(o solveOut, phases bool, log *spanLog, job int) split {
	var sp split
	root := log.add("solve", o.start, o.end, -1, job)
	bounds := []time.Time{o.start}
	for _, r := range o.tr.rounds {
		bounds = append(bounds, r.at)
	}
	bounds = append(bounds, o.end)
	intervals := len(bounds) - 1
	ids := make([]int, intervals)
	inInterval := make([][]passRec, intervals)
	for i := range ids {
		name := "round"
		if i == 0 {
			name = "init"
		}
		ids[i] = log.add(name, bounds[i], bounds[i+1], root, job)
	}
	for _, p := range o.tr.passes {
		i := intervals - 1
		for i > 0 && p.start.Before(bounds[i]) {
			i--
		}
		inInterval[i] = append(inInterval[i], p)
		wall := p.end.Sub(p.start).Seconds()
		sp.decode += wall - p.callback.Seconds()
		sp.consume += p.callback.Seconds()
		sp.passWall += wall
		sp.edges += p.edges
	}
	sp.init = bounds[1].Sub(bounds[0]).Seconds()
	for i := 0; i < intervals; i++ {
		ps := inInterval[i]
		roundPhases := i > 0 && phases && len(ps) == 2
		if !roundPhases {
			for _, p := range ps {
				log.add("pass", p.start, p.end, ids[i], job)
			}
		}
		if i == 0 {
			continue
		}
		w := bounds[i+1].Sub(bounds[i]).Seconds()
		sp.rounds = append(sp.rounds, w)
		endAlloc := o.endAlloc
		if i < len(o.tr.rounds) {
			endAlloc = o.tr.rounds[i].alloc
		}
		sp.roundAlloc = append(sp.roundAlloc, (endAlloc-o.tr.rounds[i-1].alloc)/1e6)
		if roundPhases {
			smp, lam := ps[0], ps[1]
			log.add("sample", smp.start, smp.end, ids[i], job)
			log.add("post", smp.end, lam.start, ids[i], job)
			log.add("lambda", lam.start, lam.end, ids[i], job)
			sp.sample += smp.end.Sub(smp.start).Seconds()
			sp.post += lam.start.Sub(smp.end).Seconds()
			sp.lambda += lam.end.Sub(lam.start).Seconds()
			sp.covered += lam.end.Sub(smp.start).Seconds()
			sp.roundTotal += w
		}
	}
	return sp
}

// batchLayers fills the engine, core, stream, runtime and cpu layer
// metrics from the traced solves.
func batchLayers(m map[string]metric, traced []solveOut, phases bool, log *spanLog, bytesPerEdge float64) {
	var inits, rounds, allocs, samples, posts, lambdas, covs, decodes, consumes []float64
	var edges, passWall float64
	var sum meters
	cpu := map[string]float64{}
	for j, o := range traced {
		sp := splitSolve(o, phases, log, j)
		inits = append(inits, sp.init)
		rounds = append(rounds, sp.rounds...)
		allocs = append(allocs, sp.roundAlloc...)
		samples = append(samples, sp.sample)
		posts = append(posts, sp.post)
		lambdas = append(lambdas, sp.lambda)
		if sp.roundTotal > 0 {
			covs = append(covs, sp.covered/sp.roundTotal)
		}
		decodes = append(decodes, sp.decode)
		consumes = append(consumes, sp.consume)
		edges += float64(sp.edges)
		passWall += sp.passWall
		sum = sum.add(o.d)
		for k, v := range o.cpu {
			cpu[k] += v
		}
	}
	jobs := float64(len(traced))
	set(m, "engine.init_s", median(inits))
	set(m, "engine.round_s.p50", median(rounds))
	set(m, "engine.round_s.p95", quantile(rounds, 0.95))
	set(m, "core.sample_pass_s", median(samples))
	set(m, "core.post_pass_s", median(posts))
	set(m, "core.lambda_pass_s", median(lambdas))
	set(m, "core.round_coverage", median(covs))
	set(m, "core.round_alloc_mb.p50", median(allocs))
	set(m, "stream.decode_s", median(decodes))
	set(m, "stream.consume_s", median(consumes))
	set(m, "stream.passes", float64(len(traced[0].tr.passes)))
	set(m, "stream.edges_per_s", edges/passWall)
	set(m, "stream.file_bytes_per_edge", bytesPerEdge)
	setRuntimeLayers(m, sum, jobs)
	setCPULayers(m, cpu, jobs)
}

// setRuntimeLayers reports the GC's share of busy CPU and its cycles per
// job.
func setRuntimeLayers(m map[string]metric, d meters, jobs float64) {
	set(m, "runtime.gc_cpu_frac", d.gcFrac())
	set(m, "runtime.gc_cycles_per_job", d.gcCycles/jobs)
}

// setCPULayers reports profiled CPU seconds per job by package bucket.
func setCPULayers(m map[string]metric, cpu map[string]float64, jobs float64) {
	for _, b := range cpuBuckets {
		set(m, "cpu."+b+"_s", cpu[b]/jobs)
	}
}

// zeroLayers reports 0 for every per-layer metric under the given
// prefixes: layers the workload does not cross.
func zeroLayers(m map[string]metric, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				set(m, d.name, 0)
			}
		}
	}
}
