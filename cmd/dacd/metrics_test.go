package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"setagree/internal/jobs"
	"setagree/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMetricsGolden pins the /metrics exposition byte-for-byte: a
// fixed registry state and server stats must always render the same
// text, so scrape configs and recording rules can rely on the names.
func TestMetricsGolden(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	s := reg.Attach()
	s.Counter(httpRequestsPrefix + "GET /healthz").Add(3)
	s.Counter(httpRequestsPrefix + "GET /jobs").Add(2)
	s.Counter("explore.states").Add(12345)
	s.Counter("explore.transitions").Add(67890)
	s.Counter("collections.decided").Add(6)
	s.Counter("collections.pruned").Add(2)
	s.Counter("collections.solvable").Add(4)
	s.Counter("collections.crosschecked").Add(5)
	s.Gauge("explore.frontier_max").SetMax(512)
	s.Timer("explore.wall").Observe(3 * time.Millisecond)
	s.Timer("explore.wall").Observe(3 * time.Millisecond)
	for _, v := range []int64{1000, 2000, 4000} {
		s.Histogram("explore.level_ns").Observe(v)
	}
	s.Histogram(httpLatencyName).Observe(1500)
	// Half the state retired, half live: Gather must merge both.
	reg.Release(s)
	live := reg.Attach()
	live.Counter("explore.states").Add(55)

	var buf bytes.Buffer
	renderMetrics(&buf, reg.Gather(), serverStats{
		Pending:      1,
		MaxPending:   8,
		States:       map[jobs.State]int{jobs.Done: 2, jobs.Running: 1, jobs.Pending: 1},
		JournalBytes: 4096,
		ArchiveBytes: 1024,
	})

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/dacd -run TestMetricsGolden -update`)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("metrics exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// Rendering twice from the same state must be byte-identical (map
	// iteration order must never leak into the output).
	var again bytes.Buffer
	renderMetrics(&again, reg.Gather(), serverStats{
		Pending:      1,
		MaxPending:   8,
		States:       map[jobs.State]int{jobs.Done: 2, jobs.Running: 1, jobs.Pending: 1},
		JournalBytes: 4096,
		ArchiveBytes: 1024,
	})
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renders of the same state differ")
	}
}

// TestMetricsEndpoint runs a real explore job through a registry-wired
// pool and checks GET /metrics serves the aggregated run counters with
// the stable names, HTTP request counters included.
func TestMetricsEndpoint(t *testing.T) {
	t.Parallel()
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := obs.NewRegistry()
	pool := jobs.NewPool(store, 1, map[string]jobs.Runner{"explore": exploreRunner(reg)})
	ts := httptest.NewServer(newServer(store, pool, serverOptions{Registry: reg}))
	defer ts.Close()
	defer pool.Drain(context.Background())

	job := submitExplore(t, ts.URL, map[string]any{"protocol": "alg2", "n": 3, "p": 1})
	waitJob(t, ts.URL, job.ID, jobs.Done, 30*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"explore_states_total ",
		"explore_level_ns{quantile=\"0.5\"}",
		"dacd_http_requests_total{route=\"POST /jobs\"} 1",
		"dacd_http_requests_total{route=\"GET /metrics\"} 1",
		"dacd_jobs{state=\"done\"} 1",
		"dacd_jobs_pending 0",
		"dacd_journal_bytes ",
		"dacd_archive_bytes 0",
		"dacd_http_request_duration_ns{quantile=\"0.99\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The finished (released) job's counters must have survived into
	// the retired accumulator with real values.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "explore_states_total ") && strings.TrimSpace(line) == "explore_states_total 0" {
			t.Error("explore_states_total is 0 after a finished job: registry lost retired state")
		}
	}
}

// TestPprofGate: the profiler mounts only behind the -pprof flag.
func TestPprofGate(t *testing.T) {
	t.Parallel()
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pool := jobs.NewPool(store, 1, nil)
	defer pool.Drain(context.Background())

	off := httptest.NewServer(newServer(store, pool, serverOptions{}))
	defer off.Close()
	if resp, err := http.Get(off.URL + "/debug/pprof/"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without flag: %v %v, want 404", resp.Status, err)
	} else {
		resp.Body.Close()
	}

	on := httptest.NewServer(newServer(store, pool, serverOptions{Pprof: true}))
	defer on.Close()
	if resp, err := http.Get(on.URL + "/debug/pprof/"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with flag: %v %v, want 200", resp.Status, err)
	} else {
		resp.Body.Close()
	}
}
