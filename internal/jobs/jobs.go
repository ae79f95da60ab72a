// Package jobs is a disk-backed job store with a worker pool, the
// persistence layer under the dacd daemon. Jobs move through
// pending → running → done/failed/canceled; every transition is one
// appended line of a JSONL journal, so the full store state is
// recovered by replaying the journal (last line per job wins). A job
// found running during recovery was orphaned by a crash and is
// re-queued as pending — its working directory (checkpoint, events
// file) survives on disk, so a checkpoint-aware runner resumes it
// rather than starting over.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// State is a job lifecycle state.
type State string

const (
	// Pending jobs wait in the queue (submitted, crash-recovered, or
	// requeued by a draining pool).
	Pending State = "pending"
	// Running jobs are claimed by a pool worker.
	Running State = "running"
	// Done jobs finished; their result is on disk (see ReadResult).
	Done State = "done"
	// Failed jobs hit a hard error, recorded in Job.Error.
	Failed State = "failed"
	// Canceled jobs were cancelled by the user before finishing.
	Canceled State = "canceled"
)

// Terminal reports whether a job in state s will never run again.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Canceled
}

// known reports whether s is one of the five lifecycle states.
func (s State) known() bool {
	return s == Pending || s == Running || s.Terminal()
}

// Job is one unit of work. The Spec payload is opaque to the store;
// the runner registered for Kind interprets it.
type Job struct {
	// ID is the store-assigned identifier ("job-000000", "job-000001", ...).
	ID string `json:"id"`
	// Kind selects the runner (e.g. "explore").
	Kind string `json:"kind"`
	// Spec is the runner's input, verbatim from submission.
	Spec json.RawMessage `json:"spec,omitempty"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Error holds the failure message of a Failed job.
	Error string `json:"error,omitempty"`
	// Attempt counts how many times the job has been claimed; an
	// attempt > 1 means the job was resumed after a crash, drain, or
	// requeue.
	Attempt int `json:"attempt,omitempty"`
	// Archived marks a finished job whose payloads were gzipped into
	// the archive directory and whose hot working directory was
	// removed (see ArchivePolicy). Reads fall back transparently.
	Archived bool `json:"archived,omitempty"`
	// Updated is the wall time of the last recorded transition.
	Updated time.Time `json:"updated"`
}

// ErrUnknownJob is returned for operations on an ID the store has
// never seen.
var ErrUnknownJob = errors.New("jobs: unknown job")

// ErrTerminal is returned when a transition is requested on a job
// already in a terminal state.
var ErrTerminal = errors.New("jobs: job already finished")

// ErrQueueFull is returned by Submit when the pending queue is at its
// LimitPending bound. The submission is not journaled; the client
// should back off and retry.
var ErrQueueFull = errors.New("jobs: pending queue full")

// Store is the disk-backed job table. All methods are safe for
// concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	journal *os.File
	jobs    map[string]*Job
	nextID  int
	limit   int
	// drains records when pending jobs recently left the queue (claims
	// and cancellations), the history behind RetryAfter. now is the
	// clock, swappable in tests.
	drains []time.Time
	now    func() time.Time

	archive      ArchivePolicy
	archiveBytes int64
}

// Open loads (or initialises) the store rooted at dir: the journal is
// replayed, and any job left running by a crashed process is requeued
// as pending with its working directory intact. Replay skips every
// line that is not a job record the store could have written: one that
// does not parse, whose id is not Submit's canonical job-%06d form, or
// whose state is not a lifecycle state.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, jobs: make(map[string]*Job), now: time.Now}
	path := filepath.Join(dir, "journal.jsonl")
	if buf, err := os.ReadFile(path); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if strings.TrimSpace(line) == "" {
				continue
			}
			var rec Job
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				// A torn final line (kill -9 mid-append) is expected;
				// anything the last complete lines established still
				// stands. Replay keeps going: last parsable line wins.
				continue
			}
			n := idNumber(rec.ID)
			if n < 0 || !rec.State.known() {
				// Not a record Submit or a transition wrote: its id could
				// name a directory outside the job tree, so it is skipped
				// like a torn line.
				continue
			}
			if j, ok := s.jobs[rec.ID]; ok {
				if rec.Spec == nil {
					rec.Spec = j.Spec // state-only records omit the spec
				}
			}
			cp := rec
			s.jobs[rec.ID] = &cp
			if n >= s.nextID {
				s.nextID = n + 1
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.journal = f
	// Crash recovery: orphaned running jobs go back to the queue.
	for _, j := range s.jobs {
		if j.State == Running {
			j.State = Pending
			if err := s.appendLocked(j, false); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return s, nil
}

// idNumber returns n when id is the canonical form Submit writes,
// job-%06d of an n in [0, 2³¹), and -1 for any other string.
func idNumber(id string) int {
	digits, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return -1
	}
	n, err := strconv.ParseUint(digits, 10, 31)
	if err != nil || fmt.Sprintf("job-%06d", n) != id {
		return -1
	}
	return int(n)
}

// Close releases the journal file. In-memory state stays readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// appendLocked writes one journal line for j (with the spec only on
// first submission, withSpec) and fsyncs it, so an acknowledged
// transition survives a crash. Caller holds s.mu.
func (s *Store) appendLocked(j *Job, withSpec bool) error {
	if s.journal == nil {
		return errors.New("jobs: store closed")
	}
	rec := *j
	if !withSpec {
		rec.Spec = nil
	}
	buf, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	if _, err := s.journal.Write(append(buf, '\n')); err != nil {
		return err
	}
	return s.journal.Sync()
}

// LimitPending bounds the number of pending jobs Submit accepts
// (0 = unlimited). Crash-recovered requeues are exempt: recovery never
// drops work, so a restarted store may briefly hold more pending jobs
// than the limit.
func (s *Store) LimitPending(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = n
}

// QueueStats returns the current pending-job count and the Submit
// limit (0 = unlimited).
func (s *Store) QueueStats() (pending, limit int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingLocked(), s.limit
}

func (s *Store) pendingLocked() int {
	n := 0
	for _, j := range s.jobs {
		if j.State == Pending {
			n++
		}
	}
	return n
}

// Submit enqueues a new job and returns its durable record. When a
// LimitPending bound is set and the queue is at it, Submit rejects the
// job with ErrQueueFull before journaling anything.
func (s *Store) Submit(kind string, spec json.RawMessage) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.limit > 0 {
		if pending := s.pendingLocked(); pending >= s.limit {
			return Job{}, fmt.Errorf("%w: %d pending (limit %d)", ErrQueueFull, pending, s.limit)
		}
	}
	j := &Job{
		ID:      fmt.Sprintf("job-%06d", s.nextID),
		Kind:    kind,
		Spec:    append(json.RawMessage(nil), spec...),
		State:   Pending,
		Updated: time.Now().UTC(),
	}
	if err := os.MkdirAll(s.jobDir(j.ID), 0o755); err != nil {
		return Job{}, err
	}
	if err := s.appendLocked(j, true); err != nil {
		return Job{}, err
	}
	s.nextID++
	s.jobs[j.ID] = j
	return *j, nil
}

// Get returns a copy of the job, or ErrUnknownJob.
func (s *Store) Get(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return *j, nil
}

// List returns all jobs sorted by ID (submission order). IDs compare
// by their number, not as strings: "job-1000000" sorts after
// "job-999999", so the table keeps submission order across the
// six-digit rollover.
func (s *Store) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(a, b int) bool { return idBefore(out[a].ID, out[b].ID) })
	return out
}

// idBefore orders job IDs by their number (submission order), falling
// back to the string compare only for IDs the store never minted.
func idBefore(a, b string) bool {
	na, nb := idNumber(a), idNumber(b)
	if na != nb {
		return na < nb
	}
	return a < b
}

// Claim atomically moves the oldest pending job (lowest ID number — a
// string compare would break FIFO at the job-1000000 rollover) to
// running and returns it; ok is false when the queue is empty.
func (s *Store) Claim() (Job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var pick *Job
	for _, j := range s.jobs {
		if j.State == Pending && (pick == nil || idBefore(j.ID, pick.ID)) {
			pick = j
		}
	}
	if pick == nil {
		return Job{}, false, nil
	}
	prev := *pick
	pick.State = Running
	pick.Attempt++
	pick.Updated = time.Now().UTC()
	if err := s.appendLocked(pick, false); err != nil {
		*pick = prev
		return Job{}, false, err
	}
	s.drainLocked()
	return *pick, true, nil
}

// Transition records a state change. Terminal jobs reject further
// transitions (ErrTerminal), except the idempotent no-op of setting
// the same terminal state again.
func (s *Store) Transition(id string, to State, errMsg string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.State.Terminal() {
		if j.State == to {
			return *j, nil
		}
		return *j, fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.State)
	}
	prev := *j
	j.State = to
	j.Error = errMsg
	j.Updated = time.Now().UTC()
	if err := s.appendLocked(j, false); err != nil {
		*j = prev
		return Job{}, err
	}
	if prev.State == Pending && to != Pending {
		s.drainLocked() // e.g. a pending job canceled: the queue shrank
	}
	return *j, nil
}

// drainLocked records one pending job leaving the queue. The history
// is capped; RetryAfter only ever looks at the recent window.
func (s *Store) drainLocked() {
	const keep = 64
	s.drains = append(s.drains, s.now())
	if len(s.drains) > keep {
		s.drains = s.drains[len(s.drains)-keep:]
	}
}

// RetryAfter bounds for the backpressure hint.
const (
	retryAfterMin    = 1
	retryAfterMax    = 30
	retryAfterWindow = time.Minute
)

// RetryAfter estimates, in whole seconds clamped to [1, 30], how long
// a submitter rejected with ErrQueueFull should wait before retrying:
// the time to drain the current backlog at the recently observed drain
// rate (claims plus cancellations of pending jobs over the last
// minute). With no drain history — an idle or freshly started daemon —
// it falls back to the optimistic minimum of 1 second.
func (s *Store) RetryAfter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	recent := s.drains
	for len(recent) > 0 && now.Sub(recent[0]) > retryAfterWindow {
		recent = recent[1:]
	}
	if len(recent) < 2 {
		return retryAfterMin
	}
	span := recent[len(recent)-1].Sub(recent[0])
	if span <= 0 {
		return retryAfterMin
	}
	rate := float64(len(recent)-1) / span.Seconds() // drains per second
	secs := int(math.Ceil(float64(s.pendingLocked()) / rate))
	if secs < retryAfterMin {
		return retryAfterMin
	}
	if secs > retryAfterMax {
		return retryAfterMax
	}
	return secs
}

func (s *Store) jobDir(id string) string {
	return filepath.Join(s.dir, "jobs", id)
}

// Dir returns the job's working directory (checkpoint, events file,
// result live here; it survives crashes and requeues).
func (s *Store) Dir(id string) string { return s.jobDir(id) }

// CheckpointPath is where the job's runner keeps its checkpoint.
func (s *Store) CheckpointPath(id string) string {
	return filepath.Join(s.jobDir(id), "checkpoint.ckpt")
}

// EventsPath is the job's JSONL event stream (what dacd serves over
// SSE).
func (s *Store) EventsPath(id string) string {
	return filepath.Join(s.jobDir(id), "events.jsonl")
}

// ResultPath is the job's result document.
func (s *Store) ResultPath(id string) string {
	return filepath.Join(s.jobDir(id), "result.json")
}

// WriteResult atomically persists a job's result document
// (temp + fsync + rename, same discipline as checkpoints).
func (s *Store) WriteResult(id string, result []byte) error {
	path := s.ResultPath(id)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".result-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(result); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadResult returns the job's result document, hot or archived.
func (s *Store) ReadResult(id string) ([]byte, error) {
	return s.ReadJobFile(id, "result.json")
}
