// The HTTP surface: thin handlers over the codec (job.go) and the
// queueing machinery (serve.go). Nothing here knows how a solve runs;
// everything speaks JobSpec/JobStatus/ErrorDoc.

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/match"
)

// maxJobBody bounds a job submission body (the RBG1 upload kind can
// carry whole instances inline).
const maxJobBody = 256 << 20

// maxJobVertices caps a job's n, checked before any per-vertex work:
// admission fingerprints every vertex, and the solver allocates about
// 1 KB per vertex (1 033 MB measured for n = 2^20 with two edges at
// ε = 0.3).
const maxJobVertices = 1 << 20

// maxGenEdges caps a gen job's m at what an RBG1 upload within
// maxJobBody can carry (16-byte records), so a generated instance is
// never larger than an uploaded one could be.
const maxGenEdges = maxJobBody / 16

// routes mounts the endpoint table:
//
//	POST /v1/jobs             submit a job, 202 + {id, status}
//	POST /v1/solve            submit and wait, 200 + full status document
//	GET  /v1/jobs/{id}        status document (any state)
//	GET  /v1/jobs/{id}/result status document once terminal (409 before)
//	GET  /v1/jobs/{id}/events SSE stream of per-round Observer events
//	GET  /v1/algorithms       the algorithm table
//	GET  /metrics             Prometheus text format
//	GET  /healthz             liveness
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/solve", s.handleSolveSync)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// writeJSON writes one JSON document with the given status.
func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// writeError writes the structured error envelope.
func writeError(w http.ResponseWriter, status int, doc *ErrorDoc) {
	writeJSON(w, status, struct {
		Error *ErrorDoc `json:"error"`
	}{doc})
}

// decodeSpec reads and validates the JSON job envelope; a non-nil
// ErrorDoc means the request was already answered-worthy with 400.
func decodeSpec(r *http.Request) (*JobSpec, *ErrorDoc) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, &ErrorDoc{Code: "invalid_json", Message: fmt.Sprintf("decoding job: %v", err)}
	}
	return &spec, nil
}

// submit runs the shared admission path: decode, build, admit. The
// job context is ctx (Background for async submissions, the request
// context for synchronous ones).
func (s *Server) submit(w http.ResponseWriter, r *http.Request, async bool) *job {
	spec, errDoc := decodeSpec(r)
	if errDoc != nil {
		writeError(w, http.StatusBadRequest, errDoc)
		return nil
	}
	ctx := r.Context()
	if async {
		ctx = context.Background()
	}
	j, errDoc := s.buildJob(ctx, spec)
	if errDoc != nil {
		writeError(w, http.StatusBadRequest, errDoc)
		return nil
	}
	status, errDoc := s.admit(j)
	if errDoc != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.5)))
		}
		writeError(w, status, errDoc)
		return nil
	}
	return j
}

// handleSubmit is POST /v1/jobs: admit and answer 202 immediately.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if j := s.submit(w, r, true); j != nil {
		writeJSON(w, http.StatusAccepted, j.snapshot())
	}
}

// handleSolveSync is POST /v1/solve: admit, wait for the terminal
// state, and answer with the full status document. The job is tied to
// the request context, so a disconnected client cancels its solve.
func (s *Server) handleSolveSync(w http.ResponseWriter, r *http.Request) {
	j := s.submit(w, r, false)
	if j == nil {
		return
	}
	st, err := j.wait(r.Context())
	if err != nil {
		// The client is gone; the response is a formality.
		writeError(w, http.StatusRequestTimeout, &ErrorDoc{Code: "canceled", Message: err.Error()})
		return
	}
	code := http.StatusOK
	if st.Status == stateFailed {
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, st)
}

// handleStatus is GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &ErrorDoc{Code: "not_found", Message: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleResult is GET /v1/jobs/{id}/result: the status document once
// the job is terminal, 409 while it is still queued or running.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &ErrorDoc{Code: "not_found", Message: "no such job"})
		return
	}
	st := j.snapshot()
	if st.Status != stateDone && st.Status != stateFailed {
		writeError(w, http.StatusConflict, &ErrorDoc{Code: "not_done",
			Message: fmt.Sprintf("job %s is %s; poll status or stream events", st.ID, st.Status)})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents is GET /v1/jobs/{id}/events: a server-sent-events stream
// of the job's per-round Observer events. Events already delivered are
// replayed first (the job retains them all), then the stream follows
// live rounds and closes with a terminal "done" event carrying the full
// status document — so the sequence a subscriber sees is bit-identical
// to the in-process Observer callback sequence, no matter when it
// subscribed.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &ErrorDoc{Code: "not_found", Message: "no such job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, &ErrorDoc{Code: "unsupported", Message: "response writer cannot stream"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ctx := r.Context()
	stop := context.AfterFunc(ctx, func() { j.cond.Broadcast() })
	defer stop()

	next := 0
	for {
		j.mu.Lock()
		for next >= len(j.events) && j.state != stateDone && j.state != stateFailed && ctx.Err() == nil {
			j.cond.Wait()
		}
		pending := append([]match.RoundEvent(nil), j.events[next:]...)
		terminal := j.state == stateDone || j.state == stateFailed
		j.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		for _, ev := range pending {
			raw, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: round\ndata: %s\n\n", raw)
		}
		next += len(pending)
		flusher.Flush()
		if terminal && next == j.eventCount() {
			raw, err := json.Marshal(j.snapshot())
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: done\ndata: %s\n\n", raw)
			flusher.Flush()
			return
		}
	}
}

// handleAlgorithms is GET /v1/algorithms: the algorithm table, so
// clients can discover valid JobSpec.Algorithm values.
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Default    string                `json:"default"`
		Algorithms []match.AlgorithmInfo `json:"algorithms"`
	}{s.defaultAlgo, match.Algorithms()})
}

// handleMetrics is GET /metrics: Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	warmEntries := 0
	if s.warm != nil {
		warmEntries = s.warm.size()
	}
	s.metrics.render(w, gauges{
		queueDepth:   len(s.queue),
		poolSessions: s.cfg.PoolSize,
		poolInFlight: int(s.inFlight.Load()),
		warmEntries:  warmEntries,
	})
}

// handleHealth is GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}
