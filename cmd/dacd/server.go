package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"setagree/internal/jobs"
	"setagree/internal/obs"
)

//go:embed web
var webFS embed.FS

// serverOptions configures the operational surface of the HTTP server.
// The zero value serves the full API with self-contained metrics, a
// 15-second SSE keepalive, and no profiler.
type serverOptions struct {
	// Registry aggregates metrics across job sinks; nil makes the
	// server create a private one (its HTTP metrics still export).
	Registry *obs.Registry
	// Pprof mounts net/http/pprof under GET /debug/pprof/.
	Pprof bool
	// KeepAlive is the idle cadence of SSE comment frames (`: keepalive`)
	// that hold proxies and dead-peer detection open on quiet streams.
	// 0 means the 15-second default; negative disables.
	KeepAlive time.Duration
}

const defaultKeepAlive = 15 * time.Second

// server is dacd's HTTP surface. Every response body is JSON except
// the SSE event stream, GET /metrics (Prometheus text), GET /jobs/{id}/dot
// (Graphviz), and the embedded dashboard under GET /.
type server struct {
	store     *jobs.Store
	pool      *jobs.Pool
	mux       *http.ServeMux
	reg       *obs.Registry
	sink      *obs.Sink // server-lifetime sink for HTTP metrics
	keepAlive time.Duration
}

func newServer(store *jobs.Store, pool *jobs.Pool, opts serverOptions) *server {
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ka := opts.KeepAlive
	if ka == 0 {
		ka = defaultKeepAlive
	}
	s := &server{
		store:     store,
		pool:      pool,
		mux:       http.NewServeMux(),
		reg:       reg,
		sink:      reg.Attach(),
		keepAlive: ka,
	}
	s.handle("GET /healthz", s.healthz, true)
	s.handle("POST /jobs", s.submit, true)
	s.handle("GET /jobs", s.list, true)
	s.handle("GET /jobs/{id}", s.get, true)
	s.handle("POST /jobs/{id}/cancel", s.cancel, true)
	s.handle("GET /jobs/{id}/result", s.result, true)
	s.handle("GET /jobs/{id}/dot", s.dot, true)
	// The SSE stream lives as long as the job: counted, never timed
	// (it would dominate the latency histogram with stream lifetimes).
	s.handle("GET /jobs/{id}/events", s.events, false)
	s.handle("GET /metrics", s.metrics, true)

	// Dashboard: one embedded page, no build step. "/{$}" is exact, so
	// unknown paths still 404 instead of serving the index.
	s.handle("GET /{$}", s.index, true)
	static, err := fs.Sub(webFS, "web")
	if err != nil {
		panic(err) // embed layout is fixed at compile time
	}
	s.mux.Handle("GET /static/", http.StripPrefix("/static/", http.FileServerFS(static)))

	if opts.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// handle registers h with a per-route request counter and (for timed
// routes) the shared latency histogram. The route label is the pattern
// string itself, captured here at registration so the hot path is one
// map-free counter add.
func (s *server) handle(pattern string, h http.HandlerFunc, timed bool) {
	requests := s.sink.Counter(httpRequestsPrefix + pattern)
	latency := s.sink.Histogram(httpLatencyName)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		if timed {
			defer latency.Start()()
		}
		h(w, r)
	})
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "jobs": len(s.store.List())})
}

func (s *server) index(w http.ResponseWriter, r *http.Request) {
	buf, err := webFS.ReadFile("web/index.html")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(buf)
}

// metrics serves the Prometheus text exposition of everything the
// registry has seen (live jobs, finished jobs, the server itself) plus
// the job table, queue occupancy, and on-disk footprint.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	pending, limit := s.store.QueueStats()
	st := serverStats{
		Pending:    pending,
		MaxPending: limit,
		States:     make(map[jobs.State]int),
	}
	for _, j := range s.store.List() {
		st.States[j.State]++
	}
	st.JournalBytes, st.ArchiveBytes = s.store.Sizes()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	renderMetrics(w, s.reg.Gather(), st)
}

// submitRequest is the POST /jobs body: a runner kind and its spec.
type submitRequest struct {
	Kind string          `json:"kind"`
	Spec json.RawMessage `json:"spec"`
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Kind == "" {
		writeError(w, http.StatusBadRequest, errors.New("kind is required"))
		return
	}
	job, err := s.pool.Submit(req.Kind, req.Spec)
	if err != nil {
		if errors.Is(err, jobs.ErrUnknownKind) {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if errors.Is(err, jobs.ErrQueueFull) {
			// Back-pressure, not failure: the client should retry once
			// the pool has drained some of the queue. The hint is the
			// store's backlog/drain-rate estimate, clamped to [1,30]s.
			w.Header().Set("Retry-After", strconv.Itoa(s.store.RetryAfter()))
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

// listResponse is the GET /jobs body: the job table, the queue's
// occupancy and Submit bound (max_pending 0 = unlimited), and the
// on-disk footprint (journal plus gzipped archive) the sweeps bound.
type listResponse struct {
	Jobs         []jobs.Job `json:"jobs"`
	Pending      int        `json:"pending"`
	MaxPending   int        `json:"max_pending"`
	JournalBytes int64      `json:"journal_bytes"`
	ArchiveBytes int64      `json:"archive_bytes"`
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	pending, limit := s.store.QueueStats()
	journal, archive := s.store.Sizes()
	writeJSON(w, http.StatusOK, listResponse{
		Jobs:         s.store.List(),
		Pending:      pending,
		MaxPending:   limit,
		JournalBytes: journal,
		ArchiveBytes: archive,
	})
}

func (s *server) get(w http.ResponseWriter, r *http.Request) {
	job, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.pool.Cancel(r.PathValue("id"))
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, jobs.ErrUnknownJob) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *server) result(w http.ResponseWriter, r *http.Request) {
	job, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if job.State != jobs.Done {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s (error %q); no result", job.ID, job.State, job.Error))
		return
	}
	res, err := s.store.ReadResult(job.ID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(res)
}

// dot serves the Graphviz rendering a job produced (spec {"dot":true});
// jobs without one 404. Archived jobs decompress transparently.
func (s *server) dot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.store.Get(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	buf, err := s.store.ReadJobFile(id, "graph.dot")
	if err != nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job %s has no DOT rendering (submit with \"dot\": true): %w", id, err))
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	w.Write(buf)
}

// events streams the job's JSONL event file over Server-Sent Events:
// each complete line becomes one `data:` frame, tailed live while the
// job runs. The stream ends with an `event: done` frame carrying the
// job's terminal state once the job finishes and the file is drained
// (a resumed job's stream picks up exactly where the checkpoint left
// it — trimmed overshoot lines are re-sent by the resumed run). Idle
// streams carry a `: keepalive` comment frame on the configured
// cadence so intermediaries don't reap quiet connections.
func (s *server) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.store.Get(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	// Tell buffering reverse proxies (nginx et al.) to pass frames
	// through as they are written.
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	var off int64
	lastWrite := time.Now()
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		n, sent := s.sendFrom(w, id, off)
		off = n
		if sent {
			flusher.Flush()
			lastWrite = time.Now()
		}
		job, err := s.store.Get(id)
		if err == nil && job.State.Terminal() && !sent {
			fmt.Fprintf(w, "event: done\ndata: {\"state\":%q}\n\n", job.State)
			flusher.Flush()
			return
		}
		if s.keepAlive > 0 && time.Since(lastWrite) >= s.keepAlive {
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
			lastWrite = time.Now()
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// sendFrom writes every complete JSONL line at or beyond byte offset
// off as an SSE data frame and returns the new offset and whether
// anything was sent. Partial trailing lines stay unsent until their
// newline lands. Reads go through the store, so a stream whose job is
// archived mid-tail keeps serving from the compressed copy.
func (s *server) sendFrom(w http.ResponseWriter, id string, off int64) (int64, bool) {
	buf, err := s.store.ReadEvents(id)
	if err != nil {
		return off, false
	}
	// A resumed job truncates the file; restart the tail from zero so
	// the client sees the stream the resumed run is rebuilding.
	if int64(len(buf)) < off {
		off = 0
	}
	sent := false
	for {
		rest := buf[off:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break
		}
		fmt.Fprintf(w, "data: %s\n\n", rest[:nl])
		off += int64(nl) + 1
		sent = true
	}
	return off, sent
}
