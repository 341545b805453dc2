package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/match"
)

// serveSpec fixes the serve-mix workload: the arrival rate, the job
// sizes and the client's connection count.
type serveSpec struct {
	rate         float64 // Poisson arrivals per second
	smallN       int     // edges, rbg1, warm and trip instances
	smallM       int
	genN, genM   int // gen specs
	warmKeys     int // distinct instances the warm class repeats
	conns        int // client connections (at most nproc)
	approxSample int // jobs whose weight is checked against the exact optimum
}

func serveMixSpec(toy bool) serveSpec {
	if toy {
		return serveSpec{rate: 40, smallN: 16, smallM: 60, genN: 24, genM: 100, warmKeys: 2, conns: 2, approxSample: 8}
	}
	return serveSpec{rate: 20, smallN: 32, smallM: 160, genN: 48, genM: 320, warmKeys: 3, conns: 2, approxSample: 32}
}

// jobClasses is the job mix: the five mixes of the repository's serving
// experiment E18 (internal/bench/serve_experiments.go), in equal shares
// as E18 runs them, each an exact share of the schedule (the order is a
// seeded shuffle, so every seed offers the same mix).
var jobClasses = []string{
	"edges", // distinct inline edge lists
	"rbg1",  // distinct base64 RBG1 uploads
	"gen",   // distinct generator specs, twice the size
	"warm",  // repeats of a few instances, served from the warm cache
	"trip",  // distinct edge lists capped at Budget{Rounds: 2}
}

// serveJob is one scheduled request.
type serveJob struct {
	class string
	due   time.Duration // offset from the schedule start
	body  []byte
	g     *graph.Graph    // the instance, for validation
	gen   *stream.GenSpec // or its generator spec
}

// serveOut is what the client saw for one request.
type serveOut struct {
	due, sent, done time.Time
	lag             float64 // timer lateness in seconds; -1 when the job waited for a connection
	code            int
	st              serve.JobStatus
	err             error
}

// schedule draws the seed's jobs: N arrivals for the window, at uniform
// order statistics over it (a Poisson process conditioned on its count,
// so every seed offers exactly the scheduled rate), classes in the exact
// mix shares, instances distinct per job except the warm class.
func schedule(sp serveSpec, seed uint64, seconds float64) ([]serveJob, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5e12e))
	n := int(sp.rate*seconds + 0.5)
	if n < len(jobClasses) {
		n = len(jobClasses)
	}
	classes := make([]string, n)
	for i := range classes {
		classes[i] = jobClasses[i%len(jobClasses)]
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * seconds
	}
	sort.Float64s(dues)

	wc := graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}
	warm := make([]*graph.Graph, sp.warmKeys)
	for k := range warm {
		warm[k] = graph.GNM(sp.smallN, sp.smallM, wc, rng.Uint64())
	}
	jobs := make([]serveJob, n)
	for i := range jobs {
		j := &jobs[i]
		j.class, j.due = classes[i], time.Duration(dues[i]*float64(time.Second))
		spec := serve.JobSpec{}
		switch j.class {
		case "edges", "trip":
			j.g = graph.GNM(sp.smallN, sp.smallM, wc, rng.Uint64())
			spec.Source = edgesSpec(j.g)
			if j.class == "trip" {
				spec.Budget = match.Budget{Rounds: 2}
			}
		case "warm":
			j.g = warm[rng.IntN(len(warm))]
			spec.Source = edgesSpec(j.g)
		case "rbg1":
			j.g = graph.GNM(sp.smallN, sp.smallM, wc, rng.Uint64())
			var buf bytes.Buffer
			if err := stream.WriteBinary(&buf, stream.NewEdgeStream(j.g)); err != nil {
				return nil, err
			}
			spec.Source = serve.SourceSpec{Kind: "rbg1", DataBase64: base64.StdEncoding.EncodeToString(buf.Bytes())}
		case "gen":
			j.gen = &stream.GenSpec{N: sp.genN, M: sp.genM, Weights: wc, Seed: rng.Uint64()}
			spec.Source = serve.SourceSpec{Kind: "gen", N: sp.genN, M: sp.genM, Weights: "uniform", WMax: 25, Seed: j.gen.Seed}
		}
		body, err := json.Marshal(&spec)
		if err != nil {
			return nil, err
		}
		j.body = body
	}
	return jobs, nil
}

// edgesSpec is the inline wire form of g.
func edgesSpec(g *graph.Graph) serve.SourceSpec {
	s := serve.SourceSpec{Kind: "edges", N: g.N()}
	for _, e := range g.Edges() {
		s.Edges = append(s.Edges, []float64{float64(e.U), float64(e.V), e.W})
	}
	return s
}

// server is a running matchd: serve.New behind a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
}

// startServer starts the serving layer on a loopback port: a pool of 2
// sessions, ε=0.3, one worker per session, warm cache on.
func startServer() (*server, error) {
	srv, err := serve.New(serve.Config{
		PoolSize:      2,
		Options:       []match.Option{match.WithEps(0.3), match.WithWorkers(1)},
		WarmCacheSize: 1024,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serving goroutine and drains
// the serving layer.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	s.srv.Close()
}

// serveSetup is what serve-mix builds before its window: the schedule
// with every body encoded, and a started server.
type serveSetup struct {
	jobs   []serveJob
	srv    *server
	client *http.Client
}

func (s *serveSetup) close() {
	s.client.CloseIdleConnections()
	s.srv.close()
}

func buildServe(sp serveSpec, seed uint64, seconds float64) (*serveSetup, error) {
	jobs, err := schedule(sp, seed, seconds)
	if err != nil {
		return nil, err
	}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: sp.conns, MaxIdleConnsPerHost: sp.conns, DisableCompression: true}}
	return &serveSetup{jobs: jobs, srv: srv, client: client}, nil
}

// warm solves each warm-class instance once, so the window's warm jobs
// find the fingerprint cache filled. It runs after the timed set-up: its
// cost is a few cold solves, already measured by the window.
func (s *serveSetup) warm() error {
	warmed := map[*graph.Graph]bool{}
	for _, j := range s.jobs {
		if j.class != "warm" || warmed[j.g] {
			continue
		}
		warmed[j.g] = true
		if code, _, err := post(s.client, s.srv.url, j.body); err != nil || code != http.StatusOK {
			return fmt.Errorf("warming the cache: HTTP %d: %v", code, err)
		}
	}
	return nil
}

// post sends one synchronous solve and decodes the status document.
func post(c *http.Client, url string, body []byte) (int, serve.JobStatus, error) {
	var st serve.JobStatus
	resp, err := c.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, st, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, st, err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return resp.StatusCode, st, fmt.Errorf("decoding response: %w", err)
	}
	return resp.StatusCode, st, nil
}

// scrape reads the server's /metrics counters (unlabelled and labelled
// samples alike, keyed by the full sample name).
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// runLoad plays the schedule open loop: sp.conns client goroutines take
// jobs in due order, sleep until each is due, and send it; a job due
// while every connection is busy waits, and its latency counts that
// wait. With trace set, the CPU profiler runs over the second half of
// the schedule.
func runLoad(s *serveSetup, sp serveSpec, seconds float64, trace bool) ([]serveOut, map[string]float64, error) {
	outs := make([]serveOut, len(s.jobs))
	start := time.Now().Add(50 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < sp.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.jobs) {
					return
				}
				o := &outs[i]
				o.due = start.Add(s.jobs[i].due)
				o.lag = -1
				if d := time.Until(o.due); d > 0 {
					time.Sleep(d)
					o.lag = time.Since(o.due).Seconds()
				}
				o.sent = time.Now()
				o.code, o.st, o.err = post(s.client, s.srv.url, s.jobs[i].body)
				o.done = time.Now()
			}
		}()
	}
	if !trace {
		wg.Wait()
		return outs, nil, nil
	}
	time.Sleep(time.Until(start.Add(time.Duration(seconds / 2 * float64(time.Second)))))
	prof, err := startCPUProfile()
	if err != nil {
		wg.Wait()
		return nil, nil, err
	}
	wg.Wait()
	cpu, err := prof.stop()
	return outs, cpu, err
}

// runServeMix runs the open-loop serving workload.
func runServeMix(opt options) (*report, error) {
	sp := serveMixSpec(opt.toy)
	rep := newReport()
	s, setupS, err := timeSetup(func() (*serveSetup, error) { return buildServe(sp, opt.seed, opt.seconds) }, (*serveSetup).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	set(rep.e2e, "setup_s", setupS)
	if err := s.warm(); err != nil {
		return nil, err
	}

	before, err := scrape(s.client, s.srv.url)
	if err != nil {
		return nil, err
	}
	m0 := readMeters()
	outs, cpu, err := runLoad(s, sp, opt.seconds, opt.trace)
	if err != nil {
		return nil, err
	}
	d := readMeters().sub(m0)
	after, err := scrape(s.client, s.srv.url)
	if err != nil {
		return nil, err
	}

	rep.attempted = len(outs)
	var lat, solve, queue, overhead, lags, passes, rounds, peaks, certs []float64
	var firstHalf, secondHalf []float64
	profiled := 0
	byClass := map[string][]float64{}
	var approxJobs []int
	var lastDone time.Time
	start := outs[0].due.Add(-s.jobs[0].due)
	for i, o := range outs {
		j := s.jobs[i]
		if !checkResponse(rep, i, j, o) {
			rep.failed++
			continue
		}
		l := o.done.Sub(o.due).Seconds()
		wait := o.sent.Sub(o.due).Seconds()
		if wait < 0 {
			wait = 0
		}
		q, sv := o.st.QueueMS/1000, o.st.SolveMS/1000
		lat = append(lat, l)
		solve = append(solve, sv)
		queue = append(queue, q)
		overhead = append(overhead, l-wait-q-sv)
		if o.lag >= 0 {
			lags = append(lags, o.lag)
		}
		byClass[j.class] = append(byClass[j.class], l)
		// The CPU profiler covers the schedule's second half; the tracing
		// overhead compares the same-size classes' solves across halves.
		profiledHalf := j.due.Seconds() >= opt.seconds/2
		if profiledHalf {
			profiled++
		}
		if j.class == "edges" || j.class == "rbg1" {
			if profiledHalf {
				secondHalf = append(secondHalf, sv)
			} else {
				firstHalf = append(firstHalf, sv)
			}
		}
		res := o.st.Result
		passes = append(passes, float64(res.Stats.Passes))
		rounds = append(rounds, float64(res.Stats.SamplingRounds))
		peaks = append(peaks, float64(res.Stats.PeakWords))
		if ub := res.CertifiedUpperBound(); ub > 0 && ub < 1e300 {
			certs = append(certs, res.Weight/ub)
		}
		if j.class != "trip" && len(approxJobs) < sp.approxSample {
			approxJobs = append(approxJobs, i)
		}
		if o.done.After(lastDone) {
			lastDone = o.done
		}
	}
	ok := float64(len(lat))
	if ok == 0 {
		return rep, errNoJobs
	}

	// Outside the window: check every returned matching against its
	// instance, and a sample of weights against the exact optimum.
	var approx []float64
	for i, o := range outs {
		if o.st.Result == nil {
			continue
		}
		src, g, err := jobSource(s.jobs[i])
		if err != nil {
			return nil, err
		}
		if err := o.st.Result.Validate(src); err != nil {
			rep.fail("job %d (%s): matching infeasible: %v", i, s.jobs[i].class, err)
			continue
		}
		if len(approxJobs) > 0 && approxJobs[0] == i {
			approxJobs = approxJobs[1:]
			_, optW := matching.MaxWeightMatchingFloat(g, false)
			approx = append(approx, o.st.Result.Weight/optW)
		}
	}

	set(rep.e2e, "solve_s.p50", median(solve))
	set(rep.e2e, "latency_ms.p50", 1000*median(lat))
	set(rep.layers, "latency_ms.p95", 1000*quantile(lat, 0.95))
	set(rep.e2e, "cpu_s_per_job", d.cpu/ok)
	set(rep.e2e, "alloc_mb_per_job", d.heapAlloc/ok/1e6)
	set(rep.e2e, "goodput_rps", ok/lastDone.Sub(start).Seconds())
	set(rep.e2e, "passes", mean(passes))
	set(rep.e2e, "rounds", mean(rounds))
	set(rep.e2e, "peak_words", mean(peaks))
	set(rep.e2e, "cert_ratio", mean(certs))
	set(rep.e2e, "approx_ratio", mean(approx))
	set(rep.e2e, "rss_peak_mb", rssPeakMB())
	fmt.Printf("# serve-mix jobs=%d ok=%d rate=%.1f/s conns=%d\n", len(outs), len(lat), sp.rate, sp.conns)

	if opt.trace {
		m := rep.layers
		zeroLayers(m, "engine.", "core.", "stream.")
		set(m, "serve.queue_ms.p50", 1000*median(queue))
		set(m, "serve.queue_ms.p95", 1000*quantile(queue, 0.95))
		set(m, "serve.solve_ms.p50", 1000*median(solve))
		set(m, "serve.solve_ms.p95", 1000*quantile(solve, 0.95))
		set(m, "serve.overhead_ms.p50", 1000*median(overhead))
		hits := after["matchd_warm_hits_total"] - before["matchd_warm_hits_total"]
		misses := after["matchd_warm_misses_total"] - before["matchd_warm_misses_total"]
		set(m, "serve.warm_hit_ratio", hits/(hits+misses))
		set(m, "serve.rejected", after["matchd_jobs_rejected_total"]-before["matchd_jobs_rejected_total"])
		trips := 0.0
		for _, axis := range []string{"passes", "rounds", "space-words"} {
			k := fmt.Sprintf("matchd_budget_trips_total{axis=%q}", axis)
			trips += after[k] - before[k]
		}
		set(m, "serve.budget_trips", trips)
		for _, c := range jobClasses {
			set(m, "serve."+c+".latency_ms.p50", 1000*median(byClass[c]))
		}
		set(m, "load.lag_ms.p95", 1000*quantile(lags, 0.95))
		set(m, "load.offered_rps", float64(len(outs))/opt.seconds)
		setRuntimeLayers(m, d, ok)
		setCPULayers(m, cpu, float64(profiled))
		set(m, "trace.overhead_frac", median(secondHalf)/median(firstHalf)-1)
		rep.spans = requestSpans(outs, s.jobs, start)
	}
	return rep, nil
}

// checkResponse is the correctness gate for one response: HTTP 200 and
// state done, with the rounds axis reported exactly for the trip class.
func checkResponse(rep *report, i int, j serveJob, o serveOut) bool {
	switch {
	case o.err != nil:
		rep.fail("job %d (%s): %v", i, j.class, o.err)
	case o.code != http.StatusOK || o.st.Status != "done" || o.st.Result == nil:
		rep.fail("job %d (%s): HTTP %d, status %q", i, j.class, o.code, o.st.Status)
	case j.class == "trip" && (o.st.BudgetExceeded == nil || o.st.BudgetExceeded.Axis != match.AxisRounds):
		rep.fail("job %d (trip): no rounds-axis budget trip reported", i)
	case j.class != "trip" && o.st.BudgetExceeded != nil:
		rep.fail("job %d (%s): unexpected budget trip on %s", i, j.class, o.st.BudgetExceeded.Axis)
	default:
		return true
	}
	return false
}

// jobSource rebuilds a job's instance for validation.
func jobSource(j serveJob) (stream.Source, *graph.Graph, error) {
	if j.gen != nil {
		gs, err := stream.NewGen(*j.gen)
		if err != nil {
			return nil, nil, err
		}
		return gs, stream.Materialize(gs), nil
	}
	if j.g == nil {
		return nil, nil, errors.New("job has no instance")
	}
	return stream.NewEdgeStream(j.g), j.g, nil
}

// requestSpans lays out each request's spans from the client's clock and
// the server's reported durations: the send wait, then queue and solve
// end to end from the send time; the rest of the request is wire
// decode, fingerprinting and encode.
func requestSpans(outs []serveOut, jobs []serveJob, origin time.Time) []span {
	log := &spanLog{origin: origin}
	for i, o := range outs {
		if o.done.IsZero() {
			continue
		}
		root := log.add("request."+jobs[i].class, o.due, o.done, -1, i)
		log.add("send_wait", o.due, o.sent, root, i)
		q := o.sent.Add(time.Duration(o.st.QueueMS * float64(time.Millisecond)))
		log.add("queue", o.sent, q, root, i)
		log.add("solve", q, q.Add(time.Duration(o.st.SolveMS*float64(time.Millisecond))), root, i)
	}
	return log.spans
}
