package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"
	"time"

	"setagree/internal/collections"
	"setagree/internal/jobs"
	"setagree/internal/sweepspec"
)

// submitJob posts a job of any kind and requires acceptance.
func submitJob(t *testing.T, base, kind string, spec any) jobs.Job {
	t.Helper()
	resp := postJSON(t, base+"/jobs", map[string]any{"kind": kind, "spec": spec})
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit %s: %s: %s", kind, resp.Status, body)
	}
	return decodeJob(t, resp)
}

// rawResult fetches a done job's result document verbatim.
func rawResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s: %s", resp.Status, buf)
	}
	return buf
}

// TestSweepJobE2E submits the Theorem 7.1 sweep (1116 candidates) to
// a daemon and requires its result document to be byte-identical to
// the same sweep's report rendered in process.
func TestSweepJobE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	rep, err := sweepspec.Run(context.Background(), sweepspec.Thm71(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.Render()
	if err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, t.TempDir())
	j := submitJob(t, d.base, "sweep", map[string]any{"sweep": sweepspec.Thm71()})
	if done := waitJob(t, d.base, j.ID, jobs.Done, 2*time.Minute); done.Error != "" {
		t.Fatalf("sweep finished with error %q", done.Error)
	}
	got := rawResult(t, d.base, j.ID)
	if !bytes.Contains(got, []byte(`"candidates": 1116`)) {
		t.Fatalf("result is not the 1116-candidate Thm 7.1 sweep:\n%.400s", got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("daemon report differs from the in-process report:\n--- daemon\n%.800s\n--- in process\n%.800s", got, want)
	}
}

// TestCollectionsSweepE2E runs the reference collections sweep on a
// daemon and requires a report byte-identical to collections.Sweep in
// process, the dacd_collections_* metric families, and one
// collections.progress event per decided collection in the job's
// stream (the dashboard's sparkline feed).
func TestCollectionsSweepE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	sp := sweepspec.CollectionsRef()
	rep, err := collections.Sweep(sp.Space(), sp.Task(), sp.Options())
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.Render()
	if err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, t.TempDir())
	j := submitJob(t, d.base, "collections-sweep", map[string]any{"collections": sp})
	if done := waitJob(t, d.base, j.ID, jobs.Done, time.Minute); done.Error != "" {
		t.Fatalf("collections sweep finished with error %q", done.Error)
	}
	got := rawResult(t, d.base, j.ID)
	if !bytes.Contains(got, []byte(`"collections": 6`)) {
		t.Fatalf("result is not the 6-collection reference sweep:\n%.400s", got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("daemon report differs from collections.Sweep:\n--- daemon\n%s\n--- in process\n%s", got, want)
	}

	mresp, err := http.Get(d.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if decided := metricValue(t, metrics, "dacd_collections_decided_total"); decided != 6 {
		t.Errorf("dacd_collections_decided_total = %d, want 6", decided)
	}

	eresp, err := http.Get(d.base + "/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	events := readSome(t, eresp.Body, []byte("collections.done"), 10*time.Second)
	if n := bytes.Count(events, []byte(`"event":"collections.progress"`)); n != 6 {
		t.Errorf("event stream has %d collections.progress events, want 6:\n%s", n, events)
	}
}

// metricValue extracts an un-labeled counter/gauge value from a
// Prometheus text exposition.
func metricValue(t *testing.T, exposition []byte, name string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindSubmatch(exposition)
	if m == nil {
		t.Fatalf("metric %s not found in exposition", name)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// readSome reads from r until the marker appears or the deadline
// passes (SSE streams stay open, so a plain ReadAll would hang).
func readSome(t *testing.T, r io.Reader, marker []byte, timeout time.Duration) []byte {
	t.Helper()
	var buf bytes.Buffer
	deadline := time.Now().Add(timeout)
	chunk := make([]byte, 4096)
	for time.Now().Before(deadline) {
		n, err := r.Read(chunk)
		buf.Write(chunk[:n])
		if bytes.Contains(buf.Bytes(), marker) {
			break
		}
		if err != nil {
			break
		}
	}
	return buf.Bytes()
}
