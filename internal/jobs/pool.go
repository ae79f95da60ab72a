package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrCancelRequested is the cancellation cause a user cancel injects
// into a running job's context; the pool records the job as Canceled.
var ErrCancelRequested = errors.New("jobs: canceled by request")

// ErrUnknownKind is returned by Pool.Submit for a job kind with no
// registered runner; nothing is journaled.
var ErrUnknownKind = errors.New("jobs: unknown job kind")

// errDraining is the cancellation cause Drain injects; the job goes
// back to Pending so a restarted pool resumes it from its checkpoint.
var errDraining = errors.New("jobs: pool draining")

// Runner executes one job. It runs with the job's working directory
// already provisioned (store.Dir/CheckpointPath/EventsPath) and must
// honour ctx: stop at the next safe point, persist a checkpoint if it
// supports one, and return an error wrapping ctx's. The returned bytes
// become the job's result document on success.
type Runner func(ctx context.Context, store *Store, job Job) ([]byte, error)

// Pool pulls pending jobs from a Store and runs them on a fixed set of
// worker goroutines, with per-job cancellation and a graceful drain
// that distinguishes "user canceled this job" (terminal) from "the
// daemon is shutting down" (job requeued for the next process).
type Pool struct {
	store   *Store
	runners map[string]Runner
	wake    chan struct{}

	mu       sync.Mutex
	inflight map[string]context.CancelCauseFunc
	draining bool

	wg   sync.WaitGroup
	stop context.CancelFunc
}

// NewPool starts `workers` goroutines serving the store's queue with
// the given per-kind runners. Submit rejects unregistered kinds; jobs
// of such a kind already in the journal fail when claimed. Call Drain
// to stop.
func NewPool(store *Store, workers int, runners map[string]Runner) *Pool {
	if workers <= 0 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		store:    store,
		runners:  runners,
		wake:     make(chan struct{}, 1),
		inflight: make(map[string]context.CancelCauseFunc),
		stop:     cancel,
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(ctx)
	}
	return p
}

// Submit enqueues a job and nudges an idle worker. A kind with no
// runner is rejected with ErrUnknownKind.
func (p *Pool) Submit(kind string, spec []byte) (Job, error) {
	if _, ok := p.runners[kind]; !ok {
		return Job{}, fmt.Errorf("%w %q", ErrUnknownKind, kind)
	}
	j, err := p.store.Submit(kind, spec)
	if err != nil {
		return Job{}, err
	}
	p.poke()
	return j, nil
}

func (p *Pool) poke() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// Cancel cancels a job: a pending job is marked Canceled directly, a
// running one has its context cancelled with ErrCancelRequested (the
// worker records the terminal state once the runner unwinds).
func (p *Pool) Cancel(id string) (Job, error) {
	p.mu.Lock()
	cancel := p.inflight[id]
	p.mu.Unlock()
	if cancel != nil {
		cancel(ErrCancelRequested)
		return p.store.Get(id)
	}
	j, err := p.store.Get(id)
	if err != nil {
		return Job{}, err
	}
	if j.State.Terminal() {
		return j, nil
	}
	return p.store.Transition(id, Canceled, "")
}

// Drain stops the pool gracefully: workers stop claiming, every
// in-flight job's context is cancelled with a shutdown cause (runners
// checkpoint and unwind; the jobs return to Pending), and Drain blocks
// until all workers exit or ctx expires.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	p.draining = true
	for _, cancel := range p.inflight {
		cancel(errDraining)
	}
	p.mu.Unlock()
	p.stop()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain: %w", ctx.Err())
	}
}

func (p *Pool) worker(ctx context.Context) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		draining := p.draining
		p.mu.Unlock()
		if draining || ctx.Err() != nil {
			return
		}
		job, ok, err := p.store.Claim()
		if err != nil || !ok {
			select {
			case <-p.wake:
			case <-ctx.Done():
				return
			}
			continue
		}
		p.runOne(ctx, job)
		p.poke() // more work may be queued behind this job
	}
}

// runOne executes one claimed job and records its terminal state (or
// requeues it on drain).
func (p *Pool) runOne(ctx context.Context, job Job) {
	runner, ok := p.runners[job.Kind]
	if !ok {
		p.store.Transition(job.ID, Failed, fmt.Sprintf("no runner for kind %q", job.Kind))
		return
	}
	jctx, cancel := context.WithCancelCause(ctx)
	p.mu.Lock()
	p.inflight[job.ID] = cancel
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.inflight, job.ID)
		p.mu.Unlock()
		cancel(nil)
	}()

	result, err := runner(jctx, p.store, job)
	cause := context.Cause(jctx)
	switch {
	case err == nil:
		if werr := p.store.WriteResult(job.ID, result); werr != nil {
			p.store.Transition(job.ID, Failed, fmt.Sprintf("persisting result: %v", werr))
			return
		}
		p.store.Transition(job.ID, Done, "")
	case errors.Is(cause, ErrCancelRequested):
		p.store.Transition(job.ID, Canceled, err.Error())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Shutdown (drain or parent context): back to the queue; the
		// runner left a checkpoint, so the next claim resumes.
		p.store.Transition(job.ID, Pending, "")
	default:
		p.store.Transition(job.ID, Failed, err.Error())
	}
}
