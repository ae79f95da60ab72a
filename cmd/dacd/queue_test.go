package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"setagree/internal/checkpoint"
	"setagree/internal/jobs"
)

// TestSubmitBackpressure pins the HTTP face of the bounded queue: a
// full pending queue turns POST /jobs into 429 with a Retry-After
// header, GET /jobs reports the occupancy and bound, and capacity
// freed by the pool makes submissions succeed again.
func TestSubmitBackpressure(t *testing.T) {
	t.Parallel()
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	release := make(chan struct{})
	pool := jobs.NewPool(store, 1, map[string]jobs.Runner{
		"block": func(ctx context.Context, s *jobs.Store, j jobs.Job) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return []byte(`{}`), nil
		},
	})
	ts := httptest.NewServer(newServer(store, pool, serverOptions{}))
	defer ts.Close()
	defer pool.Drain(context.Background())
	defer close(release)

	// Occupy the single worker, then fill the queue.
	running := postJSON(t, ts.URL+"/jobs", map[string]any{"kind": "block"})
	blocked := decodeJob(t, running)
	waitJob(t, ts.URL, blocked.ID, jobs.Running, 10*time.Second)
	store.LimitPending(1)
	queued := decodeJob(t, postJSON(t, ts.URL+"/jobs", map[string]any{"kind": "block"}))

	resp := postJSON(t, ts.URL+"/jobs", map[string]any{"kind": "block"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over bound: %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Errorf("429 response carries no Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 30 {
		// The hint is derived from the observed drain rate; whatever the
		// history, it must parse and stay within the clamp.
		t.Errorf("Retry-After = %q, want an integer in [1,30]", ra)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Errorf("429 body = %+v, %v; want an error message", body, err)
	}

	lresp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list listResponse
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Pending != 1 || list.MaxPending != 1 || len(list.Jobs) != 2 {
		t.Fatalf("GET /jobs = pending %d, max_pending %d, %d jobs; want 1, 1, 2",
			list.Pending, list.MaxPending, len(list.Jobs))
	}

	// Draining the queue restores capacity.
	release <- struct{}{} // finish the running job; the worker claims the queued one
	waitJob(t, ts.URL, queued.ID, jobs.Running, 10*time.Second)
	resp2 := postJSON(t, ts.URL+"/jobs", map[string]any{"kind": "block"})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after drain: %s, want 202", resp2.Status)
	}
}

// TestExploreJobDiskStore runs an explore job with the out-of-core
// store and checks its verdict matches a heap-backed job's, the arena
// files are cleaned out of the job directory, and budget misuse in the
// spec fails the job up front.
func TestExploreJobDiskStore(t *testing.T) {
	t.Parallel()
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pool := jobs.NewPool(store, 1, map[string]jobs.Runner{"explore": runExploreJob})
	ts := httptest.NewServer(newServer(store, pool, serverOptions{}))
	defer ts.Close()
	defer pool.Drain(context.Background())

	spec := map[string]any{"protocol": "alg2", "n": 3, "p": 1, "valency": true}
	mem := submitExplore(t, ts.URL, spec)
	waitJob(t, ts.URL, mem.ID, jobs.Done, 30*time.Second)

	spec["store"] = true
	spec["store_budget"] = "1GB"
	disk := submitExplore(t, ts.URL, spec)
	waitJob(t, ts.URL, disk.ID, jobs.Done, 30*time.Second)
	if got, want := verdictOf(getResult(t, ts.URL, disk.ID)), verdictOf(getResult(t, ts.URL, mem.ID)); got.Verdict != want.Verdict ||
		got.States != want.States || got.Transitions != want.Transitions || got.Quiescent != want.Quiescent {
		t.Errorf("disk-store job verdict %+v, want %+v", got, want)
	}
	if ents, err := os.ReadDir(filepath.Join(store.Dir(disk.ID), "store")); err == nil && len(ents) != 0 {
		t.Errorf("arena files left in job dir after run: %v", ents)
	}

	bad := submitExplore(t, ts.URL, map[string]any{"protocol": "alg2", "n": 3, "p": 1, "store_budget": "1GB"})
	j := waitJob(t, ts.URL, bad.ID, jobs.Failed, 30*time.Second)
	if j.Error == "" {
		t.Errorf("budget-without-store job failed with no error message")
	}
}

// TestExploreJobOldCheckpoint pins what happens to an explore job that
// was interrupted under a build writing version-1 snapshots, whose
// values were zigzag varints rather than value codes: the runner fails
// it with checkpoint.ErrVersion and keeps the snapshot, without
// panicking or decoding the payload, and the pool marks the job failed
// with that error.
func TestExploreJobOldCheckpoint(t *testing.T) {
	t.Parallel()
	store, err := jobs.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	spec, err := json.Marshal(map[string]any{"protocol": "alg2", "n": 3, "p": 1})
	if err != nil {
		t.Fatal(err)
	}
	job, err := store.Submit("explore", spec)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := store.CheckpointPath(job.ID)
	h := checkpoint.Header{Kind: "explore.bfs", Version: 1}
	if err := checkpoint.Write(ckpt, h, []byte{0, 0, 3, 1, 9, 9}); err != nil {
		t.Fatal(err)
	}

	if _, err := runExploreJob(context.Background(), store, job); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("runExploreJob over a version-1 snapshot returned %v, want ErrVersion", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Errorf("version-1 snapshot removed: %v", err)
	}

	pool := jobs.NewPool(store, 1, map[string]jobs.Runner{"explore": runExploreJob})
	ts := httptest.NewServer(newServer(store, pool, serverOptions{}))
	defer ts.Close()
	defer pool.Drain(context.Background())
	j := waitJob(t, ts.URL, job.ID, jobs.Failed, 30*time.Second)
	if !strings.Contains(j.Error, checkpoint.ErrVersion.Error()) {
		t.Errorf("job failed with %q, want it to name %q", j.Error, checkpoint.ErrVersion)
	}
}
