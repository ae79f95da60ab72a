package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"setagree/internal/jobs"
	"setagree/internal/obs"
	"setagree/internal/sweepspec"
)

// sweepJobSpec is the JSON spec of a "sweep" job.
type sweepJobSpec struct {
	Sweep sweepspec.SweepSpec `json:"sweep"`
}

// sweepRunner returns the jobs.Runner for kind "sweep": check the
// whole sweep in process and store the canonical SweepReport.
func sweepRunner(reg *obs.Registry) jobs.Runner {
	return inProcessRunner(reg, func(ctx context.Context, sp sweepJobSpec, sink *obs.Sink, events *obs.Emitter) ([]byte, error) {
		rep, err := sweepspec.Run(ctx, sp.Sweep, sink, events)
		if err != nil {
			return nil, err
		}
		return rep.Render()
	})
}

// collectionsJobSpec is the JSON spec of a "collections-sweep" job.
type collectionsJobSpec struct {
	Collections sweepspec.CollectionsSpec `json:"collections"`
}

// collectionsRunner returns the jobs.Runner for kind
// "collections-sweep": decide every collection of the space in process
// and store the canonical collections.Report.
func collectionsRunner(reg *obs.Registry) jobs.Runner {
	return inProcessRunner(reg, func(ctx context.Context, sp collectionsJobSpec, sink *obs.Sink, events *obs.Emitter) ([]byte, error) {
		rep, err := sweepspec.RunCollections(ctx, sp.Collections, sink, events)
		if err != nil {
			return nil, err
		}
		return rep.Render()
	})
}

// inProcessRunner adapts a sweep-shaped job to a jobs.Runner: decode
// the spec, attach a registry sink and a fresh event stream, and return
// the rendered document. Sweeps are not checkpointed: verdicts are
// deterministic and cheap to recompute, so a retried job re-runs from
// scratch.
func inProcessRunner[S any](reg *obs.Registry, run func(context.Context, S, *obs.Sink, *obs.Emitter) ([]byte, error)) jobs.Runner {
	return func(ctx context.Context, store *jobs.Store, job jobs.Job) ([]byte, error) {
		var sp S
		if err := json.Unmarshal(job.Spec, &sp); err != nil {
			return nil, fmt.Errorf("bad spec: %w", err)
		}
		emitter, closeEvents, err := jobEmitter(store, job.ID)
		if err != nil {
			return nil, err
		}
		defer closeEvents()
		sink := reg.Attach()
		if sink == nil {
			sink = obs.NewSink()
		}
		defer reg.Release(sink)
		out, err := run(ctx, sp, sink, emitter)
		if err != nil {
			emitter.Sync()
			return nil, err
		}
		if err := emitter.Sync(); err != nil {
			return nil, fmt.Errorf("event stream: %w", err)
		}
		return out, nil
	}
}

// jobEmitter opens the job's event stream fresh (sweeps re-run from
// scratch on retry, so any stale stream is dropped).
func jobEmitter(store *jobs.Store, id string) (*obs.Emitter, func() error, error) {
	ef, err := os.Create(store.EventsPath(id))
	if err != nil {
		return nil, nil, err
	}
	return obs.NewEmitter(ef), ef.Close, nil
}
