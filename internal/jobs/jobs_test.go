package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"
)

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, s *Store, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == want {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (want %s, error %q)", id, j.State, want, j.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestStoreLifecycle(t *testing.T) {
	t.Parallel()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	a, err := s.Submit("explore", json.RawMessage(`{"alg":2}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit("sweep", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID || a.State != Pending || b.State != Pending {
		t.Fatalf("bad submissions: %+v %+v", a, b)
	}
	if info, err := os.Stat(s.Dir(a.ID)); err != nil || !info.IsDir() {
		t.Fatalf("job dir %s not provisioned: %v", s.Dir(a.ID), err)
	}

	// FIFO claim order, attempt accounting.
	c1, ok, err := s.Claim()
	if err != nil || !ok || c1.ID != a.ID || c1.State != Running || c1.Attempt != 1 {
		t.Fatalf("first claim: %+v ok=%v err=%v", c1, ok, err)
	}
	c2, ok, _ := s.Claim()
	if !ok || c2.ID != b.ID {
		t.Fatalf("second claim: %+v ok=%v", c2, ok)
	}
	if _, ok, _ := s.Claim(); ok {
		t.Fatal("claim on empty queue succeeded")
	}

	if err := s.WriteResult(a.ID, []byte(`{"verdict":"solved"}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(a.ID, Done, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(b.ID, Failed, "boom"); err != nil {
		t.Fatal(err)
	}
	if res, err := s.ReadResult(a.ID); err != nil || string(res) != `{"verdict":"solved"}` {
		t.Fatalf("result: %q, %v", res, err)
	}

	// Terminal states reject further transitions (idempotent same-state
	// excepted).
	if _, err := s.Transition(a.ID, Canceled, ""); !errors.Is(err, ErrTerminal) {
		t.Fatalf("terminal transition: %v", err)
	}
	if _, err := s.Transition(a.ID, Done, ""); err != nil {
		t.Fatalf("idempotent terminal transition: %v", err)
	}
	if _, err := s.Get("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v", err)
	}
	if got := s.List(); len(got) != 2 || got[0].ID != a.ID || got[1].ID != b.ID {
		t.Fatalf("list: %+v", got)
	}
}

// TestJournalRecovery kills a store (no clean shutdown) with one job
// running and a torn trailing journal line, then reopens: the running
// job is requeued as pending with its spec and attempt count intact,
// terminal jobs stay terminal, and new IDs don't collide.
func TestJournalRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Submit("explore", json.RawMessage(`{"n":4}`))
	done, _ := s.Submit("explore", nil)
	if _, ok, _ := s.Claim(); !ok { // a → running
		t.Fatal("claim failed")
	}
	if _, ok, _ := s.Claim(); !ok { // done → running
		t.Fatal("claim failed")
	}
	if _, err := s.Transition(done.ID, Done, ""); err != nil {
		t.Fatal(err)
	}
	// Simulate kill -9: no Close, plus a torn half-line at the tail.
	f, err := os.OpenFile(dir+"/journal.jsonl", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"job-00`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ja, err := s2.Get(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ja.State != Pending {
		t.Errorf("orphaned job state = %s, want pending", ja.State)
	}
	if string(ja.Spec) != `{"n":4}` {
		t.Errorf("spec lost across recovery: %q", ja.Spec)
	}
	if ja.Attempt != 1 {
		t.Errorf("attempt = %d, want 1 preserved", ja.Attempt)
	}
	if jd, _ := s2.Get(done.ID); jd.State != Done {
		t.Errorf("done job state = %s, want done", jd.State)
	}
	c, _ := s2.Submit("explore", nil)
	if c.ID == a.ID || c.ID == done.ID {
		t.Errorf("recovered store reissued ID %s", c.ID)
	}
	// The requeued job is claimable and its attempt keeps counting.
	rc, ok, err := s2.Claim()
	if err != nil || !ok || rc.ID != a.ID || rc.Attempt != 2 {
		t.Fatalf("reclaim after recovery: %+v ok=%v err=%v", rc, ok, err)
	}
}

func TestPoolRunsAndFails(t *testing.T) {
	t.Parallel()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := NewPool(s, 2, map[string]Runner{
		"echo": func(ctx context.Context, st *Store, j Job) ([]byte, error) {
			return j.Spec, nil
		},
		"bomb": func(ctx context.Context, st *Store, j Job) ([]byte, error) {
			return nil, errors.New("kaboom")
		},
	})
	defer p.Drain(context.Background())

	var ids []string
	for i := 0; i < 5; i++ {
		j, err := p.Submit("echo", []byte(fmt.Sprintf(`{"i":%d}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	bomb, _ := p.Submit("bomb", nil)
	if _, err := p.Submit("warp", nil); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("Submit of an unregistered kind: %v, want ErrUnknownKind", err)
	}

	for i, id := range ids {
		waitState(t, s, id, Done)
		if res, err := s.ReadResult(id); err != nil || string(res) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Errorf("job %s result %q, %v", id, res, err)
		}
	}
	if j := waitState(t, s, bomb.ID, Failed); j.Error != "kaboom" {
		t.Errorf("failed job error = %q", j.Error)
	}
	if list := s.List(); len(list) != len(ids)+1 {
		t.Errorf("store holds %d jobs, want %d: the rejected kind was journaled", len(list), len(ids)+1)
	}
}

// TestUnknownKindInJournalFails pins the run-time path for a kind the
// pool has no runner for: a pending job journaled by a daemon that
// knew the kind fails with "no runner" once a pool without it claims
// it after a restart.
func TestUnknownKindInJournalFails(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old, err := s.Submit("retired", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	p := NewPool(s2, 1, map[string]Runner{})
	defer p.Drain(context.Background())
	j := waitState(t, s2, old.ID, Failed)
	if want := `no runner for kind "retired"`; j.Error != want {
		t.Errorf("error = %q, want %q", j.Error, want)
	}
}

// blockingRunner parks until its context is cancelled (signalling
// started), then returns the context's error — the shape of a
// checkpoint-aware runner interrupted mid-run.
func blockingRunner(started chan<- string) Runner {
	return func(ctx context.Context, st *Store, j Job) ([]byte, error) {
		started <- j.ID
		<-ctx.Done()
		return nil, fmt.Errorf("interrupted: %w", ctx.Err())
	}
}

func TestPoolCancelIsTerminal(t *testing.T) {
	t.Parallel()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	started := make(chan string, 1)
	p := NewPool(s, 1, map[string]Runner{"block": blockingRunner(started)})
	defer p.Drain(context.Background())

	run, _ := p.Submit("block", nil)
	queued, _ := p.Submit("block", nil) // pending: the only worker is busy
	<-started
	// Cancelling a pending job needs no worker cooperation.
	if j, err := p.Cancel(queued.ID); err != nil || j.State != Canceled {
		t.Fatalf("pending cancel: %+v, %v", j, err)
	}
	// Cancelling the running job unwinds its runner.
	if _, err := p.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, run.ID, Canceled)
	// Cancelling an already-canceled job is a no-op.
	if j, err := p.Cancel(queued.ID); err != nil || j.State != Canceled {
		t.Fatalf("repeated cancel: %+v, %v", j, err)
	}
}

// TestPoolDrainRequeuesAndResumes is the crash/shutdown round trip:
// drain interrupts a running job, which goes back to pending (not
// canceled), and a new pool on the same store picks it up and finishes
// it on the second attempt.
func TestPoolDrainRequeuesAndResumes(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 1)
	resumable := func(ctx context.Context, st *Store, j Job) ([]byte, error) {
		if j.Attempt == 1 {
			started <- j.ID
			<-ctx.Done()
			return nil, fmt.Errorf("interrupted: %w", ctx.Err())
		}
		return []byte(`"resumed"`), nil
	}
	p := NewPool(s, 1, map[string]Runner{"resumable": resumable})
	j, _ := p.Submit("resumable", nil)
	<-started
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(j.ID); got.State != Pending {
		t.Fatalf("drained job state = %s, want pending", got.State)
	}
	s.Close()

	// "Restart the daemon": fresh store + pool over the same directory.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	p2 := NewPool(s2, 1, map[string]Runner{"resumable": resumable})
	defer p2.Drain(context.Background())
	if got := waitState(t, s2, j.ID, Done); got.Attempt != 2 {
		t.Errorf("attempt = %d, want 2", got.Attempt)
	}
	if res, err := s2.ReadResult(j.ID); err != nil || string(res) != `"resumed"` {
		t.Errorf("result %q, %v", res, err)
	}
}

// TestSubmitQueueBound pins the back-pressure contract: with a
// LimitPending bound, Submit rejects overflow with ErrQueueFull
// (journaling nothing), claims free capacity, and crash-recovered
// requeues are exempt from the bound.
func TestSubmitQueueBound(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.LimitPending(2)

	if _, err := s.Submit("k", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("k", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("k", nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third Submit: %v, want ErrQueueFull", err)
	}
	if pending, limit := s.QueueStats(); pending != 2 || limit != 2 {
		t.Fatalf("QueueStats = (%d, %d), want (2, 2)", pending, limit)
	}
	// A rejected submission must not burn an ID or a journal line.
	if n := len(s.List()); n != 2 {
		t.Fatalf("store holds %d jobs after rejection, want 2", n)
	}

	// Claiming frees a slot.
	if _, ok, err := s.Claim(); err != nil || !ok {
		t.Fatalf("Claim: %v %v", ok, err)
	}
	if _, err := s.Submit("k", nil); err != nil {
		t.Fatalf("Submit after Claim: %v", err)
	}

	// Crash recovery: the orphaned running job is requeued even though
	// the queue is already at its bound.
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.LimitPending(2)
	if pending, _ := s2.QueueStats(); pending != 3 {
		t.Fatalf("recovered pending = %d, want 3 (requeue exempt from bound)", pending)
	}
	if _, err := s2.Submit("k", nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit over recovered bound: %v, want ErrQueueFull", err)
	}
}
