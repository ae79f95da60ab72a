package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// pollInterval is the fixed wait between job status polls. Polling
	// at a fixed short interval, not the SSE stream's 100 ms ticker,
	// keeps completion times from being quantized coarsely.
	pollInterval = 5 * time.Millisecond
	// daemonTimeout bounds the daemon's start and its shutdown.
	daemonTimeout = 30 * time.Second
	// rssWindow is the window the daemon's peak RSS is taken over.
	rssWindow = time.Second
	// The daemon is idle once its CPU clock advances less than idleCPU
	// in an idleWindow; no unit waits longer than idleWait for that.
	idleCPU    = 100 * time.Microsecond
	idleWindow = 2 * time.Millisecond
	idleWait   = time.Second
)

// dacdWorkload drives the dacd binary over HTTP with one closed-loop
// client: it submits an alg2 n=5 explore job with the configuration
// store on, polls it to completion and fetches its result. With one job
// in the daemon at a time, the daemon's CPU time over a unit is the
// unit's.
type dacdWorkload struct {
	bin, work string
	body      []byte
	client    *http.Client
	d         *daemon
}

func newDacdWorkload(cfg config) *dacdWorkload {
	var inputs []string
	for _, v := range dacInputs(5, cfg.seed) {
		inputs = append(inputs, strconv.Itoa(int(v)))
	}
	body, _ := json.Marshal(map[string]any{ // a map of strings and ints always marshals
		"kind": "explore",
		"spec": map[string]any{"protocol": "alg2", "n": 5, "workers": 1, "store": true, "inputs": strings.Join(inputs, ",")},
	})
	return &dacdWorkload{
		bin:    cfg.dacd,
		work:   cfg.work,
		body:   body,
		client: &http.Client{Timeout: daemonTimeout},
	}
}

// setUp starts a daemon on a fresh data directory and returns once its
// /healthz answers.
func (w *dacdWorkload) setUp(ctx context.Context) error {
	d, err := startDaemon(ctx, w.bin, w.work)
	w.d = d
	return err
}

func (w *dacdWorkload) tearDown() error {
	w.client.CloseIdleConnections()
	if w.d == nil {
		return nil
	}
	err := w.d.stop()
	w.d = nil
	return err
}

// cpu returns the daemon's CPU time once it has gone idle: once its CPU
// clock has advanced less than idleCPU in an idleWindow, or after
// idleWait. Work the daemon does after answering a job's result, such
// as collecting the job's garbage, so counts in that job's unit and
// does not share the host with the reference computation.
func (w *dacdWorkload) cpu() (time.Duration, error) {
	pid := w.d.cmd.Process.Pid
	prev, err := processCPU(pid)
	for deadline := time.Now().Add(idleWait); err == nil && time.Now().Before(deadline); {
		time.Sleep(idleWindow)
		now, err := processCPU(pid)
		if err != nil || now-prev < idleCPU {
			return now, err
		}
		prev = now
	}
	return prev, err
}

func (w *dacdWorkload) beforeUnit() {}

// jobStatus is the part of GET /jobs/{id} the client reads.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

func (w *dacdWorkload) unit(ctx context.Context, tr *trace) (counts, error) {
	start := time.Now()
	var job jobStatus
	tr.begin("dacd.submit")
	err := w.call(ctx, http.MethodPost, "/jobs", w.body, http.StatusAccepted, &job)
	tr.end()
	submit := time.Since(start)
	if err != nil {
		return nil, err
	}
	for job.State != "done" {
		if job.State == "failed" || job.State == "canceled" {
			return nil, fmt.Errorf("job %s: %s", job.State, job.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(pollInterval):
		}
		tr.begin("dacd.poll")
		err := w.call(ctx, http.MethodGet, "/jobs/"+job.ID, nil, http.StatusOK, &job)
		tr.end()
		if err != nil {
			return nil, err
		}
	}
	var res struct {
		Verdict     string `json:"verdict"`
		States      int64  `json:"states"`
		Transitions int64  `json:"transitions"`
		Quiescent   int64  `json:"quiescent"`
		ElapsedNs   int64  `json:"elapsed_ns"`
	}
	tr.begin("dacd.result")
	err = w.call(ctx, http.MethodGet, "/jobs/"+job.ID+"/result", nil, http.StatusOK, &res)
	tr.end()
	if err != nil {
		return nil, err
	}
	run := time.Duration(res.ElapsedNs)
	tr.sample("dacd.run_s_p50", run.Seconds())
	tr.sample("dacd.overhead_s_p50", (time.Since(start) - submit - run).Seconds())
	got := counts{"states": res.States, "transitions": res.Transitions, "quiescent": res.Quiescent}
	if res.Verdict == "solved" {
		got["solved"] = 1
	}
	return got, nil
}

// call sends one request and decodes the JSON response into into. Any
// status but want is an error, a 429 refusal included.
func (w *dacdWorkload) call(ctx context.Context, method, path string, body []byte, want int, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, w.d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// finish reads the daemon's peak RSS and, for traced runs, the per-job
// layer metrics from its /metrics counters. The daemon started empty,
// so its totals are the run's deltas.
func (w *dacdWorkload) finish(traced bool) (float64, map[string]float64, error) {
	rss, err := w.d.rss.median()
	if err != nil || !traced {
		return rss, nil, err
	}
	m, err := w.scrape()
	if err != nil {
		return 0, nil, err
	}
	done := m[`dacd_jobs{state="done"}`]
	perJob := func(name string) float64 {
		if done == 0 {
			return 0
		}
		return m[name] / done
	}
	layers := map[string]float64{
		"checkpoint.count_per_job":    perJob("explore_checkpoints_total"),
		"checkpoint.write_s_per_job":  perJob("explore_checkpoint_ns_total") / 1e9,
		"checkpoint.bytes_per_job":    perJob("explore_checkpoint_bytes_total"),
		"store.spilled_bytes_per_job": perJob("store_spilled_bytes_total"),
		"store.arena_faults_per_job":  perJob("store_arena_faults_total"),
		"jobs.journal_bytes_per_job":  perJob("dacd_journal_bytes"),
	}
	if ns := m["explore_checkpoint_ns_total"]; ns > 0 {
		layers["checkpoint.encode_frac"] = m["explore_checkpoint_encode_ns_total"] / ns
	}
	return rss, layers, nil
}

// scrape reads the daemon's Prometheus text exposition into a map from
// series (name plus labels) to value.
func (w *dacdWorkload) scrape() (map[string]float64, error) {
	resp, err := w.client.Get(w.d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// daemon is a running dacd process with its own data directory.
type daemon struct {
	cmd     *exec.Cmd
	dir     string
	base    string        // http://host:port
	drained chan struct{} // closed once the daemon's stdout reaches EOF
	rss     *rssWindows   // peak RSS per window, from /healthz on
}

// startDaemon starts dacd on a free port of 127.0.0.1 with a fresh data
// directory under work, reads the port from its "listening on" line and
// waits for /healthz. On failure the daemon is stopped and its directory
// removed.
func startDaemon(ctx context.Context, bin, work string) (*daemon, error) {
	dir, err := os.MkdirTemp(work, "dacd-data-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dir, "-job-workers", "1")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	d := &daemon{cmd: cmd, dir: dir, drained: make(chan struct{})}
	listening := make(chan string, 1) // one send: the first listening line
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "dacd: listening on "); ok {
				url, _, _ := strings.Cut(rest, " ")
				select {
				case listening <- url:
				default:
				}
			}
		}
		io.Copy(io.Discard, stdout)
	}()

	fail := func(err error) (*daemon, error) { return nil, errors.Join(err, d.stop()) }
	timeout := time.NewTimer(daemonTimeout)
	defer timeout.Stop()
	select {
	case d.base = <-listening:
	case <-d.drained:
		return fail(errors.New("dacd exited before listening"))
	case <-timeout.C:
		return fail(errors.New("dacd did not report its address"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	health := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return fail(err)
		}
		resp, err := health.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.rss = sampleRSS(cmd.Process.Pid, rssWindow)
				return d, nil
			}
		}
		select {
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-timeout.C:
			return fail(errors.New("dacd /healthz did not answer"))
		case <-time.After(time.Millisecond):
		}
	}
}

// stop shuts the daemon down with SIGTERM (SIGKILL after
// daemonTimeout), waits for it to exit and removes its data directory.
func (d *daemon) stop() error {
	if d.rss != nil {
		d.rss.median()
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(daemonTimeout):
		d.cmd.Process.Kill()
		<-d.drained
	}
	err := d.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.Sys().(syscall.WaitStatus).Signal() == syscall.SIGTERM {
		// A daemon stopped between answering /healthz and installing its
		// signal handler dies of the SIGTERM itself; set-up repetitions
		// stop daemons that soon, before any job, so this is a clean stop.
		err = nil
	}
	if err != nil {
		err = fmt.Errorf("dacd: %w", err)
	}
	return errors.Join(err, os.RemoveAll(d.dir))
}
