package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestJournalRejectsForeignRecords replays a journal that holds, besides
// one submitted job, records the store never writes: an id that escapes
// the job tree, ids off Submit's canonical form, and an unknown state.
// Replay keeps the submitted job and skips the rest, so none of them
// is requeued or given a working directory.
func TestJournalRejectsForeignRecords(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Submit("explore", json.RawMessage(`{"n":4}`))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	foreign := []string{
		`{"id":"../x","state":"running"}`,
		`{"id":"job-000001/../../y","state":"pending"}`,
		`{"id":"job-1","state":"pending"}`,
		`{"id":"job-0000002","state":"pending"}`,
		`{"id":"job-2147483648","state":"pending"}`,
		`{"id":"job-000003","state":"paused"}`,
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(strings.Join(foreign, "\n") + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, id := range []string{"../x", "job-000001/../../y", "job-1", "job-0000002", "job-2147483648", "job-000003"} {
		if _, err := s2.Get(id); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("Get(%q) = %v, want ErrUnknownJob: a foreign journal record was replayed", id, err)
		}
	}
	if list := s2.List(); len(list) != 1 || list[0].ID != a.ID || list[0].State != Pending {
		t.Errorf("replayed jobs = %+v, want only %s pending", list, a.ID)
	}
	if j, err := s2.Submit("explore", nil); err != nil || j.ID != "job-000001" {
		t.Errorf("next submit = %q, %v; want job-000001", j.ID, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "x")); !os.IsNotExist(err) {
		t.Errorf("escaping record created %s (stat err %v)", filepath.Join(dir, "x"), err)
	}
}

// FuzzJournal replays arbitrary journal bytes. Open returns a store or
// an error and never panics, and every job it replays has a canonical
// id (whose working directory lies directly under the job tree) and a
// lifecycle state.
func FuzzJournal(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	a, err := s.Submit("explore", json.RawMessage(`{"protocol":"alg2","n":4}`))
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := s.Claim(); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Transition(a.ID, Done, ""); err != nil {
		f.Fatal(err)
	}
	s.Close()
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add(append(append([]byte(nil), journal...), `{"id":"job-00`...))
	f.Add([]byte(`{"id":"../x","state":"running"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		defer s.Close()
		tree := filepath.Join(dir, "jobs")
		for _, j := range s.List() {
			n, err := strconv.Atoi(strings.TrimPrefix(j.ID, "job-"))
			if err != nil || n < 0 || n >= 1<<31 || fmt.Sprintf("job-%06d", n) != j.ID {
				t.Errorf("replayed non-canonical id %q", j.ID)
			}
			if filepath.Dir(s.Dir(j.ID)) != tree {
				t.Errorf("job %q works in %s, outside %s", j.ID, s.Dir(j.ID), tree)
			}
			switch j.State {
			case Pending, Running, Done, Failed, Canceled:
			default:
				t.Errorf("job %s replayed in unknown state %q", j.ID, j.State)
			}
		}
	})
}
