// The load driver: the client half of experiment E18. It hammers a
// running server's synchronous solve endpoint with concurrent clients,
// honors the server's backpressure (429 + Retry-After means sleep and
// retry, exactly what a well-behaved caller does), and reports
// end-to-end throughput and latency percentiles — the module's first
// heavy-traffic numbers measured through a socket rather than a
// function call.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8470".
	BaseURL string
	// Clients is the number of concurrent client goroutines.
	Clients int
	// JobsPerClient is how many solves each client completes.
	JobsPerClient int
	// Specs are the job bodies, assigned round-robin across the run.
	Specs []JobSpec
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
}

// LoadStats is the outcome of a load run. Latency is end-to-end per
// job as the client experienced it: queueing, backpressure retries and
// the solve itself all count.
type LoadStats struct {
	// Jobs is the number of completed solves (done, including budget
	// trips); Failed counts jobs that ended in any other way.
	Jobs   int
	Failed int
	// Retries429 counts backpressure rejections that were retried.
	Retries429 int
	// SolvesPerSec is Jobs over the whole run's wall time.
	SolvesPerSec float64
	// P50 and P99 are latency percentiles over completed jobs.
	P50, P99 time.Duration
}

// RunLoad drives cfg.Clients concurrent clients against the server's
// POST /v1/solve endpoint until each has completed its share of jobs,
// then aggregates throughput and latency. It fails only on misuse or
// when every job failed; partial failures are reported in the stats.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadStats, error) {
	if cfg.BaseURL == "" || cfg.Clients < 1 || cfg.JobsPerClient < 1 || len(cfg.Specs) == 0 {
		return LoadStats{}, errors.New("serve: load config needs a base URL, >= 1 client, >= 1 job and >= 1 spec")
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	bodies := make([][]byte, len(cfg.Specs))
	for i := range cfg.Specs {
		raw, err := json.Marshal(&cfg.Specs[i])
		if err != nil {
			return LoadStats{}, fmt.Errorf("serve: encoding spec %d: %w", i, err)
		}
		bodies[i] = raw
	}

	type clientTally struct {
		latencies []time.Duration
		failed    int
		retries   int
	}
	tallies := make([]clientTally, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tally := &tallies[c]
			for r := 0; r < cfg.JobsPerClient; r++ {
				body := bodies[(c+r*cfg.Clients)%len(bodies)]
				lat, retries, ok := solveOnce(ctx, client, cfg.BaseURL, body)
				tally.retries += retries
				if !ok {
					tally.failed++
					continue
				}
				tally.latencies = append(tally.latencies, lat)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var stats LoadStats
	var all []time.Duration
	for _, t := range tallies {
		all = append(all, t.latencies...)
		stats.Failed += t.failed
		stats.Retries429 += t.retries
	}
	stats.Jobs = len(all)
	if wall > 0 {
		stats.SolvesPerSec = float64(stats.Jobs) / wall.Seconds()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	stats.P50 = percentile(all, 0.50)
	stats.P99 = percentile(all, 0.99)
	if stats.Jobs == 0 {
		return stats, fmt.Errorf("serve: all %d jobs failed", stats.Failed)
	}
	return stats, nil
}

// solveOnce completes one job end to end: POST, and on 429 honor
// Retry-After and try again. The reported latency spans the first
// attempt to the final response — the latency the caller felt.
func solveOnce(ctx context.Context, client *http.Client, baseURL string, body []byte) (time.Duration, int, bool) {
	start := time.Now()
	retries := 0
	for {
		if ctx.Err() != nil {
			return 0, retries, false
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/solve", bytes.NewReader(body))
		if err != nil {
			return 0, retries, false
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return 0, retries, false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return time.Since(start), retries, true
		case http.StatusTooManyRequests:
			retries++
			select {
			case <-ctx.Done():
				return 0, retries, false
			case <-time.After(retryDelay(resp)):
			}
		default:
			return 0, retries, false
		}
	}
}

// retryDelay turns a 429's Retry-After hint into a sleep, clamped so a
// generous server hint does not stall a bench run.
func retryDelay(resp *http.Response) time.Duration {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		d := time.Duration(secs) * time.Second
		if d > 250*time.Millisecond {
			d = 250 * time.Millisecond
		}
		return d
	}
	return 25 * time.Millisecond
}

// percentile reads the q-quantile off sorted latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted))*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
