package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func newArchivedStore(t testing.TB, p ArchivePolicy) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if p.Dir == "" {
		p.Dir = filepath.Join(dir, "archive")
	}
	if err := s.SetArchive(p); err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func finishJob(t testing.TB, s *Store, spec, events, result string) Job {
	t.Helper()
	j, err := s.Submit("explore", []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Claim(); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if err := os.WriteFile(s.EventsPath(j.ID), []byte(events), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteResult(j.ID, []byte(result)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transition(j.ID, Done, ""); err != nil {
		t.Fatal(err)
	}
	return j
}

// TestSweepArchivesFinishedJobs: a sweep gzips a finished job's
// payloads into the archive, removes the hot directory, and every read
// path still serves the same bytes.
func TestSweepArchivesFinishedJobs(t *testing.T) {
	t.Parallel()
	s, _ := newArchivedStore(t, ArchivePolicy{})
	const events = "{\"type\":\"explore.start\"}\n{\"type\":\"explore.done\"}\n"
	const result = `{"solved":true}`
	j := finishJob(t, s, `{"protocol":"algorithm2"}`, events, result)

	// A job still pending must survive the sweep untouched.
	live, err := s.Submit("explore", []byte(`{"live":true}`))
	if err != nil {
		t.Fatal(err)
	}

	stats, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Archived != 1 {
		t.Fatalf("archived %d jobs, want 1", stats.Archived)
	}
	if stats.ArchiveBytes <= 0 {
		t.Errorf("archive bytes = %d, want > 0", stats.ArchiveBytes)
	}
	if _, err := os.Stat(s.Dir(j.ID)); !os.IsNotExist(err) {
		t.Errorf("hot dir still present after archival: err=%v", err)
	}
	got, err := s.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Archived {
		t.Error("job not marked archived")
	}
	if buf, err := s.ReadResult(j.ID); err != nil || string(buf) != result {
		t.Errorf("ReadResult = %q, %v", buf, err)
	}
	if buf, err := s.ReadEvents(j.ID); err != nil || string(buf) != events {
		t.Errorf("ReadEvents = %q, %v", buf, err)
	}
	if buf, err := s.ReadJobFile(j.ID, "spec.json"); err != nil || string(buf) != `{"protocol":"algorithm2"}` {
		t.Errorf("archived spec = %q, %v", buf, err)
	}
	if got, err := s.Get(live.ID); err != nil || got.Archived || got.State != Pending {
		t.Errorf("live job disturbed by sweep: %+v, %v", got, err)
	}
	// Sweeping again is a no-op.
	stats, err = s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Archived != 0 {
		t.Errorf("second sweep archived %d jobs", stats.Archived)
	}
}

// TestSweepMaxAge: jobs younger than MaxAge stay hot.
func TestSweepMaxAge(t *testing.T) {
	t.Parallel()
	s, _ := newArchivedStore(t, ArchivePolicy{MaxAge: time.Hour})
	j := finishJob(t, s, `{}`, "e\n", `{}`)
	stats, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Archived != 0 {
		t.Fatalf("archived a job %v old with MaxAge=1h", time.Hour)
	}
	if _, err := os.Stat(s.EventsPath(j.ID)); err != nil {
		t.Errorf("young job's events missing: %v", err)
	}
}

// TestSweepCompactsJournal: once the journal outgrows JournalMax, a
// sweep rewrites it to one line per job, dropping archived jobs'
// specs, and the store replays correctly from the compacted journal.
func TestSweepCompactsJournal(t *testing.T) {
	t.Parallel()
	s, dir := newArchivedStore(t, ArchivePolicy{JournalMax: 1})
	bigSpec := `{"pad":"` + strings.Repeat("x", 512) + `"}`
	for i := 0; i < 5; i++ {
		finishJob(t, s, bigSpec, "e\n", `{"i":`+string(rune('0'+i))+`}`)
	}
	before, _ := s.Sizes()
	stats, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Compacted {
		t.Fatal("journal not compacted despite JournalMax=1")
	}
	if stats.JournalBytes >= before {
		t.Errorf("journal grew across compaction: %d -> %d", before, stats.JournalBytes)
	}
	buf, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(buf)), "\n")
	if len(lines) != 5 {
		t.Fatalf("compacted journal has %d lines, want 5", len(lines))
	}
	if strings.Contains(string(buf), "xxxx") {
		t.Error("archived job's spec survived compaction")
	}

	// Appends after compaction land in the new journal; a reopen sees
	// both the compacted state and post-compaction writes.
	j, err := s.Submit("explore", []byte(`{"post":"compact"}`))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Get(j.ID); err != nil || got.State != Pending {
		t.Errorf("post-compaction job lost on reopen: %+v, %v", got, err)
	}
	if jobs := s2.List(); len(jobs) != 6 {
		t.Errorf("reopened store has %d jobs, want 6", len(jobs))
	}
	for _, got := range s2.List() {
		if got.ID != j.ID && !got.Archived {
			t.Errorf("job %s lost archived flag on replay", got.ID)
		}
	}
}

// TestArchiveRecovery: after a simulated crash (reopen without Close,
// plus a half-written .tmp archive entry and a leftover hot dir for a
// completed archive entry), SetArchive reconciles and reads still work.
func TestArchiveRecovery(t *testing.T) {
	t.Parallel()
	s, dir := newArchivedStore(t, ArchivePolicy{})
	j := finishJob(t, s, `{}`, "recovered-events\n", `{"ok":1}`)
	if _, err := s.Sweep(); err != nil {
		t.Fatal(err)
	}
	arDir := filepath.Join(dir, "archive")

	// Simulate a crash mid-sweep on a *different* job: a torn .tmp
	// staging dir must be discarded, and the leftover hot dir (from a
	// crash between rename and hot-removal) must be cleaned up.
	j2 := finishJob(t, s, `{}`, "torn\n", `{}`)
	if err := os.MkdirAll(filepath.Join(arDir, j2.ID+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(arDir, j.ID), 0o755); err != nil && !os.IsExist(err) {
		t.Fatal(err)
	}
	hotLeftover := s.Dir(j.ID)
	if err := os.MkdirAll(hotLeftover, 0o755); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.SetArchive(ArchivePolicy{Dir: arDir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(arDir, j2.ID+".tmp")); !os.IsNotExist(err) {
		t.Error("torn .tmp archive entry survived recovery")
	}
	if _, err := os.Stat(hotLeftover); !os.IsNotExist(err) {
		t.Error("leftover hot dir of archived job survived recovery")
	}
	got, err := s2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Archived || got.State != Done {
		t.Errorf("recovered job: %+v", got)
	}
	if buf, err := s2.ReadEvents(j.ID); err != nil || string(buf) != "recovered-events\n" {
		t.Errorf("archived events after recovery = %q, %v", buf, err)
	}
	// j2's archive was torn, so its hot copy is still authoritative.
	if buf, err := s2.ReadEvents(j2.ID); err != nil || string(buf) != "torn\n" {
		t.Errorf("hot events after recovery = %q, %v", buf, err)
	}
}

// TestSizes: both sizes are observable and move in the right
// direction across a sweep.
func TestSizes(t *testing.T) {
	t.Parallel()
	s, _ := newArchivedStore(t, ArchivePolicy{})
	journal0, archive0 := s.Sizes()
	if journal0 != 0 || archive0 != 0 {
		t.Fatalf("fresh store sizes: %d, %d", journal0, archive0)
	}
	finishJob(t, s, `{}`, strings.Repeat("event\n", 100), `{}`)
	journal1, _ := s.Sizes()
	if journal1 <= 0 {
		t.Fatal("journal empty after submissions")
	}
	if _, err := s.Sweep(); err != nil {
		t.Fatal(err)
	}
	_, archive2 := s.Sizes()
	if archive2 <= 0 {
		t.Error("archive empty after sweep")
	}
}

// FuzzArchive reads arbitrary bytes as an archived job's gzipped
// result and event stream. ReadResult and ReadEvents return bytes or an
// error and never panic, and, reading equal files, agree.
func FuzzArchive(f *testing.F) {
	const result = `{"verdict":"solved","states":1256}`
	s, _ := newArchivedStore(f, ArchivePolicy{})
	j := finishJob(f, s, `{"protocol":"alg2","n":4}`,
		"{\"type\":\"explore.start\"}\n{\"type\":\"explore.done\"}\n", result)
	if stats, err := s.Sweep(); err != nil || stats.Archived != 1 {
		f.Fatalf("sweep: %+v, %v", stats, err)
	}
	if got, err := s.ReadResult(j.ID); err != nil || string(got) != result {
		f.Fatalf("archived result reads %q, %v", got, err)
	}
	dir := filepath.Join(s.archive.Dir, j.ID)
	archived, err := os.ReadFile(filepath.Join(dir, "result.json.gz"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(archived)
	f.Add(archived[:len(archived)/2])
	f.Add([]byte(`{"verdict":"solved"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range []string{"result.json.gz", "events.jsonl.gz"} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		result, rerr := s.ReadResult(j.ID)
		events, eerr := s.ReadEvents(j.ID)
		if (rerr == nil) != (eerr == nil) || !bytes.Equal(result, events) {
			t.Fatalf("equal archive files read differently: result %q, %v; events %q, %v", result, rerr, events, eerr)
		}
	})
}
