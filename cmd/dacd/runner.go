package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"setagree/cmd/internal/protobuild"
	"setagree/internal/checkpoint"
	"setagree/internal/explore"
	"setagree/internal/jobs"
	"setagree/internal/obs"
	cfgstore "setagree/internal/store"
	"setagree/internal/task"
)

// exploreSpec is the JSON spec of an "explore" job: a protobuild
// instance description plus the model checker's knobs. The daemon
// checkpoints every run into the job's directory, so a job interrupted
// by cancel-free shutdown (drain or crash) resumes from its last
// checkpoint with a byte-identical report and event stream.
type exploreSpec struct {
	protobuild.Config
	// MaxStates caps the exploration (0 = explore.Options default).
	MaxStates int `json:"max_states,omitempty"`
	// Workers sets the BFS worker count (0 = GOMAXPROCS). Reports are
	// identical at any setting, so resumes may use a different value.
	Workers int `json:"workers,omitempty"`
	// Symmetry is the reduction mode: "" or "off", "ids", "values".
	Symmetry string `json:"symmetry,omitempty"`
	// Valency asks for valence labels and critical configurations.
	Valency bool `json:"valency,omitempty"`
	// CheckpointEvery is the snapshot cadence in BFS levels (0 = every
	// level).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// HeartbeatEvery is the explore.heartbeat cadence in interned
	// configurations (0 = explore.Options default).
	HeartbeatEvery int `json:"heartbeat_every,omitempty"`
	// PaceMs throttles the search by sleeping this many milliseconds at
	// each checkpointed level — a demo/testing knob that makes a small
	// instance long-lived enough to watch over SSE (or to kill and
	// resume).
	PaceMs int `json:"pace_ms,omitempty"`
	// Store spills the configuration store to a "store" subdirectory of
	// the job's working directory (out-of-core exploration); reports and
	// event streams stay byte-identical to runs without it.
	Store bool `json:"store,omitempty"`
	// StoreBudget bounds the live heap of a Store run, in the CLI
	// -store budget syntax (e.g. "1.5GB"); exceeding it fails the job at
	// a level barrier after a final checkpoint. Empty means no bound.
	StoreBudget string `json:"store_budget,omitempty"`
	// Dot renders the explored graph to graph.dot in the job directory
	// after the run, served by GET /jobs/{id}/dot (and archived with
	// the job).
	Dot bool `json:"dot,omitempty"`
	// DotMaxNodes caps the DOT rendering (0 = 256 nodes).
	DotMaxNodes int `json:"dot_max_nodes,omitempty"`
}

// exploreResult is the result document of a finished explore job. The
// verdict fields (verdict, states, transitions, quiescent, violations)
// are deterministic: a job that was killed and resumed produces the
// same values as an uninterrupted one.
type exploreResult struct {
	Verdict     string   `json:"verdict"` // solved | refuted | inconclusive
	States      int      `json:"states"`
	Transitions int      `json:"transitions"`
	Quiescent   int      `json:"quiescent"`
	Violations  []string `json:"violations,omitempty"`
	Resumed     bool     `json:"resumed,omitempty"`
	Attempt     int      `json:"attempt"`
	ElapsedNs   int64    `json:"elapsed_ns"`
}

// exploreRunner returns the jobs.Runner for kind "explore" with each
// run's metrics sink attached to reg, so /metrics aggregates every
// job's counters and latency histograms — running and finished alike.
func exploreRunner(reg *obs.Registry) jobs.Runner {
	return func(ctx context.Context, store *jobs.Store, job jobs.Job) ([]byte, error) {
		return runExploreJobWith(ctx, store, job, reg)
	}
}

// runExploreJob is the registry-less jobs.Runner for kind "explore"
// (the in-process tests use it directly).
func runExploreJob(ctx context.Context, store *jobs.Store, job jobs.Job) ([]byte, error) {
	return runExploreJobWith(ctx, store, job, nil)
}

// exploreInstance decodes an explore job's spec and builds the instance
// it names: everything a job does with its spec before it touches the
// job store or starts a check.
func exploreInstance(raw []byte) (exploreSpec, explore.Symmetry, *explore.System, task.Task, error) {
	var sp exploreSpec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return sp, 0, nil, nil, fmt.Errorf("bad spec: %w", err)
	}
	symMode := explore.SymmetryOff
	if sp.Symmetry != "" {
		var err error
		if symMode, err = explore.ParseSymmetry(sp.Symmetry); err != nil {
			return sp, 0, nil, nil, err
		}
	}
	prot, tsk, inputs, err := sp.Build()
	if err != nil {
		return sp, 0, nil, nil, err
	}
	sys, err := prot.System(inputs)
	if err != nil {
		return sp, 0, nil, nil, err
	}
	return sp, symMode, sys, tsk, nil
}

func runExploreJobWith(ctx context.Context, store *jobs.Store, job jobs.Job, reg *obs.Registry) ([]byte, error) {
	sp, symMode, sys, tsk, err := exploreInstance(job.Spec)
	if err != nil {
		return nil, err
	}

	ckptPath := store.CheckpointPath(job.ID)
	eventsPath := store.EventsPath(job.ID)
	resume := false
	if info, err := explore.PeekCheckpoint(ckptPath); err == nil {
		// Trim events emitted after the snapshot (and any torn line the
		// kill left), so the resumed stream continues byte-identically.
		if err := obs.TruncateEventsFile(eventsPath, info.EventSeq); err != nil {
			return nil, err
		}
		resume = true
	} else if errors.Is(err, checkpoint.ErrVersion) {
		// A snapshot another build wrote in another payload schema: fail
		// the job with the typed error, keeping the snapshot, rather than
		// quietly discarding the progress it records.
		return nil, err
	} else if !errors.Is(err, fs.ErrNotExist) {
		// Unreadable checkpoint (e.g. damaged disk): start the job over
		// rather than failing it — correctness never depends on a
		// snapshot, only wall time does.
		os.Remove(ckptPath)
	}
	openFlags := os.O_CREATE | os.O_WRONLY
	if resume {
		openFlags |= os.O_APPEND
	} else {
		openFlags |= os.O_TRUNC // drop any stale pre-checkpoint stream
	}
	ef, err := os.OpenFile(eventsPath, openFlags, 0o644)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	emitter := obs.NewEmitter(ef)

	// A registry-attached sink makes the run visible to /metrics while
	// it executes; releasing it folds the final totals into the
	// registry's retired accumulator when the run ends.
	sink := reg.Attach()
	if sink == nil {
		sink = obs.NewSink()
	}
	defer reg.Release(sink)
	opts := explore.Options{
		Valency:        sp.Valency,
		MaxStates:      sp.MaxStates,
		Workers:        sp.Workers,
		HeartbeatEvery: sp.HeartbeatEvery,
		Symmetry:       symMode,
		Obs:            sink,
		Events:         emitter,
		Ctx:            ctx,
		Checkpoint: explore.CheckpointOptions{
			Path:        ckptPath,
			EveryLevels: sp.CheckpointEvery,
		},
	}
	if sp.Store {
		// The arena directory lives in the job's working directory; a
		// resumed attempt reopens (and truncates) any leftover arenas, so
		// crash debris never accumulates.
		opts.Store = cfgstore.Options{Dir: filepath.Join(store.Dir(job.ID), "store")}
		if sp.StoreBudget != "" {
			budget, err := cfgstore.ParseBudget(sp.StoreBudget)
			if err != nil {
				return nil, fmt.Errorf("bad spec: %w", err)
			}
			opts.Store.Budget = budget
		}
	} else if sp.StoreBudget != "" {
		return nil, fmt.Errorf("bad spec: store_budget without store")
	}
	if sp.PaceMs > 0 {
		pace := time.Duration(sp.PaceMs) * time.Millisecond
		opts.Checkpoint.After = func(int) error {
			// Sleep but stay cancellable; the barrier's own context poll
			// turns the cancellation into a final checkpoint + clean exit.
			select {
			case <-time.After(pace):
			case <-ctx.Done():
			}
			return nil
		}
	}

	start := time.Now()
	var rep *explore.Report
	// Release the disk-backed store (and remove its arenas) however the
	// run ends; the checkpoint alone carries resume state.
	defer func() {
		if rep != nil {
			rep.Close()
		}
	}()
	if resume {
		rep, err = explore.Resume(ckptPath, sys, tsk, opts)
	} else {
		rep, err = explore.Check(sys, tsk, opts)
	}
	verdict := ""
	switch {
	case errors.Is(err, explore.ErrStateLimit):
		verdict = "inconclusive"
	case err != nil:
		emitter.Sync()
		return nil, err
	case rep.Solved():
		verdict = "solved"
	default:
		verdict = "refuted"
	}
	if err := emitter.Sync(); err != nil {
		return nil, fmt.Errorf("event stream: %w", err)
	}
	if sp.Dot {
		maxNodes := sp.DotMaxNodes
		if maxNodes == 0 {
			maxNodes = 256
		}
		df, err := os.Create(filepath.Join(store.Dir(job.ID), "graph.dot"))
		if err != nil {
			return nil, err
		}
		if err := rep.WriteDOT(df, maxNodes); err != nil {
			df.Close()
			return nil, fmt.Errorf("dot: %w", err)
		}
		if err := df.Close(); err != nil {
			return nil, err
		}
	}
	res := exploreResult{
		Verdict:     verdict,
		States:      rep.States,
		Transitions: rep.Transitions,
		Quiescent:   rep.Quiescent,
		Resumed:     resume,
		Attempt:     job.Attempt,
		ElapsedNs:   int64(time.Since(start)),
	}
	for _, v := range rep.Violations {
		res.Violations = append(res.Violations, v.Error())
	}
	return json.MarshalIndent(&res, "", "  ")
}
