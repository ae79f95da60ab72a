package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"setagree/internal/jobs"
)

func opsServer(t *testing.T, opts serverOptions, runners map[string]jobs.Runner) (*httptest.Server, *jobs.Store) {
	t.Helper()
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	pool := jobs.NewPool(store, 1, runners)
	ts := httptest.NewServer(newServer(store, pool, opts))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { pool.Drain(context.Background()) })
	return ts, store
}

// TestDashboardAssets: the embedded dashboard serves with the right
// content types and unknown paths still 404 (the index route is exact).
func TestDashboardAssets(t *testing.T) {
	t.Parallel()
	ts, _ := opsServer(t, serverOptions{}, nil)
	cases := []struct {
		path, wantType, marker string
	}{
		{"/", "text/html", "<table id=\"jobs\">"},
		{"/static/app.js", "text/javascript", "explore.heartbeat"},
		{"/static/style.css", "text/css", ".spark"},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", c.path, resp.Status)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, c.wantType) {
			t.Errorf("GET %s: content type %q, want %s", c.path, ct, c.wantType)
		}
		if !strings.Contains(string(body), c.marker) {
			t.Errorf("GET %s: body missing %q", c.path, c.marker)
		}
	}
	for _, path := range []string{"/nonsense", "/static/missing.js", "/jobs/job-999999/dot"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %s, want 404", path, resp.Status)
		}
	}
}

// TestSubmitUnknownKind: a kind with no runner is rejected with 400
// at submit and never reaches the job table.
func TestSubmitUnknownKind(t *testing.T) {
	t.Parallel()
	ts, store := opsServer(t, serverOptions{}, map[string]jobs.Runner{"explore": runExploreJob})
	resp := postJSON(t, ts.URL+"/jobs", map[string]any{"kind": "sweep-shard"})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit of an unregistered kind: %s, want 400", resp.Status)
	}
	if !strings.Contains(string(body), "unknown job kind") {
		t.Errorf("400 body %q does not name the unknown kind", body)
	}
	if n := len(store.List()); n != 0 {
		t.Errorf("store holds %d jobs after a rejected submit, want 0", n)
	}
}

// TestDotEndpoint: a job submitted with "dot": true serves its graph,
// and one without 404s.
func TestDotEndpoint(t *testing.T) {
	t.Parallel()
	ts, _ := opsServer(t, serverOptions{}, map[string]jobs.Runner{"explore": runExploreJob})

	withDot := submitExplore(t, ts.URL, map[string]any{"protocol": "alg2", "n": 3, "p": 1, "dot": true})
	waitJob(t, ts.URL, withDot.ID, jobs.Done, 30*time.Second)
	resp, err := http.Get(ts.URL + "/jobs/" + withDot.ID + "/dot")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dot fetch: %s: %s", resp.Status, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/vnd.graphviz") {
		t.Errorf("dot content type %q", ct)
	}
	if !strings.HasPrefix(string(body), "digraph") {
		t.Errorf("dot body does not start with digraph: %.60q", body)
	}

	plain := submitExplore(t, ts.URL, map[string]any{"protocol": "alg2", "n": 3, "p": 1})
	waitJob(t, ts.URL, plain.ID, jobs.Done, 30*time.Second)
	if resp, err := http.Get(ts.URL + "/jobs/" + plain.ID + "/dot"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dotless job: %v %v, want 404", resp.Status, err)
	} else {
		resp.Body.Close()
	}
}

// TestSSEKeepalive: a slow stream (running job that emits nothing)
// still carries `: keepalive` comment frames on the configured cadence
// and the X-Accel-Buffering opt-out, so proxies neither buffer nor
// reap it; when the job finishes, the done frame still arrives.
func TestSSEKeepalive(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	ts, _ := opsServer(t, serverOptions{KeepAlive: 80 * time.Millisecond}, map[string]jobs.Runner{
		"block": func(ctx context.Context, s *jobs.Store, j jobs.Job) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return []byte(`{}`), nil
		},
	})
	job := decodeJob(t, postJSON(t, ts.URL+"/jobs", map[string]any{"kind": "block"}))
	waitJob(t, ts.URL, job.ID, jobs.Running, 10*time.Second)

	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Accel-Buffering"); got != "no" {
		t.Errorf("X-Accel-Buffering = %q, want no", got)
	}

	type scanMsg struct {
		line string
		err  error
	}
	lines := make(chan scanMsg, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- scanMsg{line: sc.Text()}
		}
		lines <- scanMsg{err: io.EOF}
	}()
	readLine := func() string {
		t.Helper()
		select {
		case m := <-lines:
			if m.err != nil {
				t.Fatal("stream ended before expected frame")
			}
			return m.line
		case <-time.After(5 * time.Second):
			t.Fatal("no SSE frame within 5s")
			return ""
		}
	}

	// The idle stream must produce two keepalive comments (proving a
	// cadence, not a one-shot) before any data.
	keepalives := 0
	for keepalives < 2 {
		line := readLine()
		if strings.HasPrefix(line, "data:") {
			t.Fatalf("unexpected data frame on idle stream: %q", line)
		}
		if strings.HasPrefix(line, ": keepalive") {
			keepalives++
		}
	}

	close(release)
	deadline := time.After(10 * time.Second)
	for {
		select {
		case m := <-lines:
			if m.err != nil {
				t.Fatal("stream ended without done frame")
			}
			if m.line == "event: done" {
				return
			}
		case <-deadline:
			t.Fatal("no done frame after job completion")
		}
	}
}

// TestDashboardLiveDataPath drives exactly the pipeline the dashboard
// JS consumes for its sparkline: poll GET /jobs for a running paced
// job, tail its SSE stream, and turn explore.heartbeat events into
// rate samples. The run must yield at least two samples with growing
// state counts — the data a live sparkline is drawn from.
func TestDashboardLiveDataPath(t *testing.T) {
	t.Parallel()
	ts, _ := opsServer(t, serverOptions{}, map[string]jobs.Runner{"explore": runExploreJob})
	job := submitExplore(t, ts.URL, map[string]any{
		"protocol": "alg2", "n": 4, "p": 1,
		"workers": 1, "heartbeat_every": 64, "checkpoint_every": 1, "pace_ms": 50,
	})
	waitJob(t, ts.URL, job.ID, jobs.Running, 10*time.Second)

	// The dashboard's poll loop: GET /jobs must list the job running
	// with the disk-size footer fields present.
	lresp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list listResponse
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list.Jobs) != 1 || list.JournalBytes <= 0 {
		t.Fatalf("poll view: %d jobs, journal %d bytes", len(list.Jobs), list.JournalBytes)
	}

	// The dashboard's EventSource: collect heartbeat samples live.
	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type sample struct{ states, frontier float64 }
	var samples []sample
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(60 * time.Second)
	for sc.Scan() && time.Now().Before(deadline) {
		line := sc.Text()
		if line == "event: done" {
			break
		}
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if ev["event"] != "explore.heartbeat" {
			continue
		}
		states, ok := ev["states"].(float64)
		frontier, fok := ev["frontier"].(float64)
		if !ok || !fok {
			t.Fatalf("heartbeat missing sparkline fields: %v", ev)
		}
		samples = append(samples, sample{states, frontier})
		if len(samples) >= 2 {
			break
		}
	}
	if len(samples) < 2 {
		t.Fatalf("got %d heartbeat samples, want >= 2 for a sparkline", len(samples))
	}
	if samples[1].states <= samples[0].states {
		t.Errorf("states not growing across heartbeats: %v", samples)
	}
	waitJob(t, ts.URL, job.ID, jobs.Done, 120*time.Second)
}
