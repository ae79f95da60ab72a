package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"setagree/internal/explore"
	"setagree/internal/jobs"
)

// TestMain doubles as the daemon entry point for the e2e tests: when
// DACD_CHILD is set, the test binary becomes dacd itself (re-exec
// pattern), so the kill -9 smoke test needs no separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("DACD_CHILD") == "1" {
		os.Exit(run(strings.Fields(os.Getenv("DACD_ARGS")), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestJournalMaxRejectsNaN: a -journal-max that parses to no finite
// size is a usage error, not a silently disabled compaction bound.
func TestJournalMaxRejectsNaN(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-data", t.TempDir(), "-journal-max", "NaN"}, io.Discard, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2 (stderr %q)", code, stderr.String())
	}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) jobs.Job {
	t.Helper()
	defer resp.Body.Close()
	var j jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func submitExplore(t *testing.T, base string, spec map[string]any) jobs.Job {
	t.Helper()
	resp := postJSON(t, base+"/jobs", map[string]any{"kind": "explore", "spec": spec})
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	return decodeJob(t, resp)
}

func waitJob(t *testing.T, base, id string, want jobs.State, timeout time.Duration) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		j := decodeJob(t, resp)
		if j.State == want {
			return j
		}
		if j.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s (error %q), want %s", id, j.State, j.Error, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getResult(t *testing.T, base, id string) exploreResult {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("result: %s: %s", resp.Status, body)
	}
	var res exploreResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// verdictOf projects the deterministic fields of a result — the part
// that must be identical between a resumed and an uninterrupted run.
func verdictOf(r exploreResult) exploreResult {
	return exploreResult{
		Verdict:     r.Verdict,
		States:      r.States,
		Transitions: r.Transitions,
		Quiescent:   r.Quiescent,
		Violations:  r.Violations,
	}
}

// normalizeEvents strips the wall-time "ts" key from every JSONL line,
// leaving the deterministic stream (seq, event name, payload).
func normalizeEvents(t *testing.T, path string) []string {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(string(buf)), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		delete(m, "ts")
		norm, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(norm))
	}
	return out
}

// TestServerAPI exercises the HTTP surface in-process: submit, status,
// result, SSE streaming to end-of-job, cancel, and the error statuses.
func TestServerAPI(t *testing.T) {
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

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	job := submitExplore(t, ts.URL, map[string]any{"protocol": "alg2", "n": 3, "p": 1})
	waitJob(t, ts.URL, job.ID, jobs.Done, 30*time.Second)
	res := getResult(t, ts.URL, job.ID)
	if res.Verdict != "solved" || res.States == 0 {
		t.Fatalf("result: %+v", res)
	}

	// SSE: the full stream of a finished job replays, then `event: done`.
	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var dataLines int
	var sawDone bool
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: {") {
			dataLines++
		}
		if line == "event: done" {
			sawDone = true
			break
		}
	}
	if dataLines == 0 || !sawDone {
		t.Fatalf("SSE stream: %d data lines, done=%v", dataLines, sawDone)
	}
	if !strings.Contains(string(mustRead(t, store.EventsPath(job.ID))), `"event":"explore.done"`) {
		t.Error("events file missing explore.done terminal event")
	}

	// Cancel a paced job mid-run.
	slow := submitExplore(t, ts.URL, map[string]any{
		"protocol": "alg2", "n": 3, "p": 1, "checkpoint_every": 1, "pace_ms": 300,
	})
	waitJob(t, ts.URL, slow.ID, jobs.Running, 10*time.Second)
	cresp := postJSON(t, ts.URL+"/jobs/"+slow.ID+"/cancel", nil)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", cresp.Status)
	}
	cresp.Body.Close()
	waitJob(t, ts.URL, slow.ID, jobs.Canceled, 10*time.Second)
	if rr, err := http.Get(ts.URL + "/jobs/" + slow.ID + "/result"); err != nil || rr.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled job: %v %v", rr.Status, err)
	} else {
		rr.Body.Close()
	}

	// Unknown job IDs 404 everywhere.
	for _, path := range []string{"/jobs/job-999999", "/jobs/job-999999/result", "/jobs/job-999999/events"} {
		if resp, err := http.Get(ts.URL + path); err != nil || resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: %v %v", path, resp.Status, err)
		} else {
			resp.Body.Close()
		}
	}
	// Bad submissions 400.
	if resp := postJSON(t, ts.URL+"/jobs", map[string]any{"spec": map[string]any{}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("kindless submit: %s", resp.Status)
	} else {
		resp.Body.Close()
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// daemon is one spawned dacd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// stdout collects the lines printed after the greeting; read it
	// only once outDone is closed (the child exited).
	stdout  bytes.Buffer
	outDone chan struct{}
}

func startDaemon(t *testing.T, dataDir string, extraArgs ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	args := "-addr 127.0.0.1:0 -data " + dataDir + " -job-workers 1"
	if len(extraArgs) > 0 {
		args += " " + strings.Join(extraArgs, " ")
	}
	cmd.Env = append(os.Environ(),
		"DACD_CHILD=1",
		"DACD_ARGS="+args)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		t.Fatal("daemon exited before announcing its address")
	}
	line := sc.Text()
	const marker = "listening on http://"
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected daemon greeting: %q", line)
	}
	d := &daemon{cmd: cmd, base: "http://" + strings.Fields(line[i+len(marker):])[0], outDone: make(chan struct{})}
	go func() { // keep the pipe drained
		defer close(d.outDone)
		for sc.Scan() {
			d.stdout.WriteString(sc.Text() + "\n")
		}
	}()
	return d
}

// TestSIGTERMRightAfterListen pins that the signal handler is in place
// by the time the daemon announces its address: a SIGTERM sent the
// moment "listening on" is read drains the daemon to a clean exit
// instead of killing it with the default action.
func TestSIGTERMRightAfterListen(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	d := startDaemon(t, t.TempDir())
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.outDone:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon still running 30s after SIGTERM")
	}
	if err := d.cmd.Wait(); err != nil {
		t.Errorf("daemon exited uncleanly after SIGTERM: %v", err)
	}
	if !strings.Contains(d.stdout.String(), "dacd: clean shutdown") {
		t.Errorf("no clean shutdown line after SIGTERM; stdout:\n%s", d.stdout.String())
	}
}

// TestKill9ResumeE2E is the acceptance smoke test: submit an explore
// job over HTTP, watch its SSE stream, kill -9 the daemon mid-run,
// restart it on the same data directory, and require the job to finish
// from its last checkpoint with the same verdict — and the same
// deterministic event stream — as an uninterrupted run.
func TestKill9ResumeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	dataDir := t.TempDir()
	d := startDaemon(t, dataDir)

	spec := map[string]any{
		"protocol": "alg2", "n": 4, "p": 1,
		"workers": 1, "heartbeat_every": 64,
		"checkpoint_every": 1, "pace_ms": 100,
	}
	job := submitExplore(t, d.base, spec)

	// Stream SSE live while the job runs.
	sseResp, err := http.Get(d.base + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sseData := make(chan string, 256)
	go func() {
		defer close(sseData)
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "data: ") {
				select {
				case sseData <- strings.TrimPrefix(line, "data: "):
				default:
				}
			}
		}
	}()
	defer sseResp.Body.Close()
	select {
	case line := <-sseData:
		if !strings.Contains(line, `"event"`) {
			t.Fatalf("unexpected SSE payload: %q", line)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("no SSE event arrived while the job ran")
	}

	// Wait until at least two checkpointed levels are on disk, then
	// kill -9 mid-run.
	ckptPath := filepath.Join(dataDir, "jobs", job.ID, "checkpoint.ckpt")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if info, err := explore.PeekCheckpoint(ckptPath); err == nil && info.Level >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint reached level 2 in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()

	// Restart on the same data directory: the orphaned job is requeued
	// and resumes from the checkpoint.
	d2 := startDaemon(t, dataDir)
	done := waitJob(t, d2.base, job.ID, jobs.Done, 120*time.Second)
	if done.Attempt < 2 {
		t.Errorf("attempt = %d, want >= 2 (job must have been resumed)", done.Attempt)
	}
	res := getResult(t, d2.base, job.ID)
	if !res.Resumed {
		t.Error("result not marked resumed")
	}

	// Reference: the identical instance, uninterrupted (no pacing).
	ref := submitExplore(t, d2.base, map[string]any{
		"protocol": "alg2", "n": 4, "p": 1, "workers": 1, "heartbeat_every": 64,
	})
	waitJob(t, d2.base, ref.ID, jobs.Done, 120*time.Second)
	refRes := getResult(t, d2.base, ref.ID)

	if got, want := verdictOf(res), verdictOf(refRes); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed verdict differs from uninterrupted run:\n%+v\nvs\n%+v", got, want)
	}
	if res.Verdict != "solved" {
		t.Errorf("verdict = %q, want solved", res.Verdict)
	}
	killed := normalizeEvents(t, filepath.Join(dataDir, "jobs", job.ID, "events.jsonl"))
	refEvents := normalizeEvents(t, filepath.Join(dataDir, "jobs", ref.ID, "events.jsonl"))
	if !reflect.DeepEqual(killed, refEvents) {
		t.Errorf("resumed event stream differs from uninterrupted run (%d vs %d lines)",
			len(killed), len(refEvents))
		for i := 0; i < len(killed) && i < len(refEvents); i++ {
			if killed[i] != refEvents[i] {
				t.Errorf("first divergence at line %d:\n%s\nvs\n%s", i, killed[i], refEvents[i])
				break
			}
		}
	}

	// Graceful shutdown of the second daemon: SIGTERM drains cleanly.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d2.cmd.Wait(); err != nil {
		t.Errorf("daemon exited uncleanly after SIGTERM: %v", err)
	}
	if fmt.Sprint(d2.cmd.ProcessState.ExitCode()) != "0" {
		t.Errorf("exit code %d after SIGTERM, want 0", d2.cmd.ProcessState.ExitCode())
	}
}
