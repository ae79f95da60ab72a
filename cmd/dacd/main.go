// Command dacd is the durable-runs daemon: it keeps a disk-backed job
// store (internal/jobs), runs submitted explorations on a worker pool,
// checkpoints them at BFS level boundaries (internal/checkpoint), and
// serves an HTTP API with live event streaming, a Prometheus /metrics
// endpoint, and an embedded live dashboard.
//
// Usage:
//
//	dacd -addr 127.0.0.1:8099 -data ./dacd-data [-job-workers N] [-max-pending N]
//	     [-archive DIR] [-journal-max SIZE] [-archive-age D] [-archive-sweep D]
//	     [-pprof]
//
// Job kinds: "explore" runs one exploration; "sweep" checks a whole
// falsification sweep (internal/sweepspec.SweepSpec) and
// "collections-sweep" decides every collection of a set-consensus
// collections space (internal/sweepspec.CollectionsSpec). Sweeps run in
// one pass in process and their results are the canonical report
// bytes, a pure function of the spec. See EXPERIMENTS.md "Set-consensus
// collections".
//
// API (see EXPERIMENTS.md "Durable runs" for the full catalog):
//
//	GET  /                   live dashboard (embedded, no build step)
//	GET  /healthz            liveness probe
//	GET  /metrics            Prometheus text exposition: request
//	                         counters/latency quantiles, job-table
//	                         gauges, journal/archive sizes, and the
//	                         aggregated run metrics of every job
//	POST /jobs               submit {"kind":"explore","spec":{...}};
//	                         429 + Retry-After when the pending queue
//	                         is at -max-pending
//	GET  /jobs               list all jobs, plus pending/max_pending
//	                         and journal/archive byte sizes
//	GET  /jobs/{id}          one job's state
//	POST /jobs/{id}/cancel   cancel (pending or running)
//	GET  /jobs/{id}/result   result document of a done job
//	GET  /jobs/{id}/dot      Graphviz graph of a job run with "dot":true
//	GET  /jobs/{id}/events   live JSONL event stream over SSE
//	GET  /debug/pprof/*      profiler (only with -pprof)
//
// Durability: every job transition is journaled; every exploration
// checkpoints into the job's directory. SIGINT/SIGTERM drains
// gracefully — in-flight jobs write a final checkpoint, flush their
// event streams, and return to the queue. A kill -9 loses nothing the
// last checkpoint didn't cover: on restart, orphaned jobs are requeued
// and resume from their checkpoints with byte-identical reports and
// event streams.
//
// Bounded footprint: with -archive set, a background sweep gzips
// finished jobs' payloads into the archive directory every
// -archive-sweep interval (keeping jobs younger than -archive-age
// hot), and compacts the journal to one line per job whenever it
// exceeds -journal-max. Reads of archived jobs (result, events, DOT)
// decompress transparently; kill -9 at any point of a sweep leaves
// either the hot copy or a complete archive.
//
// Exit status: 0 clean shutdown, 2 startup or shutdown error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"setagree/internal/jobs"
	"setagree/internal/obs"
	cfgstore "setagree/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dacd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8099", "listen address (port 0 picks a free port)")
	dataDir := fs.String("data", "dacd-data", "durable state directory (journal, checkpoints, events, results)")
	workers := fs.Int("job-workers", 2, "concurrent job runners")
	maxPending := fs.Int("max-pending", 256, "pending-queue bound: submissions beyond it get 429 with Retry-After (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget (final checkpoints + flushes)")
	archiveDir := fs.String("archive", "", "archive directory: finished jobs' payloads are gzipped here and evicted from the hot store (empty = keep everything hot)")
	journalMax := fs.String("journal-max", "4MB", "compact the job journal when it exceeds this size (store -budget syntax; 0 = never)")
	archiveAge := fs.Duration("archive-age", time.Minute, "keep finished jobs hot for this long before archiving them")
	archiveSweep := fs.Duration("archive-sweep", 30*time.Second, "interval between archival sweeps")
	pprofOn := fs.Bool("pprof", false, "serve the profiler under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	journalBound, err := cfgstore.ParseBudget(*journalMax)
	if err != nil {
		fmt.Fprintf(stderr, "dacd: -journal-max: %v\n", err)
		return 2
	}

	store, err := jobs.Open(*dataDir)
	if err != nil {
		fmt.Fprintf(stderr, "dacd: %v\n", err)
		return 2
	}
	store.LimitPending(*maxPending)
	policy := jobs.ArchivePolicy{Dir: *archiveDir, JournalMax: journalBound, MaxAge: *archiveAge}
	if err := store.SetArchive(policy); err != nil {
		fmt.Fprintf(stderr, "dacd: %v\n", err)
		store.Close()
		return 2
	}

	reg := obs.NewRegistry()
	pool := jobs.NewPool(store, *workers, map[string]jobs.Runner{
		"explore":           exploreRunner(reg),
		"sweep":             sweepRunner(reg),
		"collections-sweep": collectionsRunner(reg),
	})
	// Install the signal handler before the listener exists: a
	// SIGTERM sent as soon as "listening on" appears must drain, not
	// kill the daemon with the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "dacd: %v\n", err)
		store.Close()
		return 2
	}
	srv := &http.Server{Handler: newServer(store, pool, serverOptions{Registry: reg, Pprof: *pprofOn})}
	fmt.Fprintf(stdout, "dacd: listening on http://%s (data in %s)\n", ln.Addr(), *dataDir)

	// Background archival: bound the hot footprint while the daemon
	// serves. Sweeps never touch non-terminal jobs, so they are safe to
	// run alongside the pool.
	sweepDone := make(chan struct{})
	sweepStop := make(chan struct{})
	if policy.Dir != "" || policy.JournalMax > 0 {
		go func() {
			defer close(sweepDone)
			ticker := time.NewTicker(*archiveSweep)
			defer ticker.Stop()
			for {
				if _, err := store.Sweep(); err != nil {
					fmt.Fprintf(stderr, "dacd: archive sweep: %v\n", err)
				}
				select {
				case <-sweepStop:
					return
				case <-ticker.C:
				}
			}
		}()
	} else {
		close(sweepDone)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	code := 0
	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "dacd: received %v, draining\n", s)
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "dacd: %v\n", err)
			code = 2
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	srv.Shutdown(ctx)
	close(sweepStop)
	<-sweepDone
	// Drain the pool before closing the store: in-flight runs
	// checkpoint, flush their event streams, and requeue as pending.
	if err := pool.Drain(ctx); err != nil {
		fmt.Fprintf(stderr, "dacd: %v\n", err)
		code = 2
	}
	if err := store.Close(); err != nil {
		fmt.Fprintf(stderr, "dacd: %v\n", err)
		code = 2
	}
	if code == 0 {
		fmt.Fprintln(stdout, "dacd: clean shutdown")
	}
	return code
}
