package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"setagree/internal/obs"
)

func TestParseFlag(t *testing.T) {
	cases := []struct {
		in     string
		dir    string
		budget int64
		err    bool
	}{
		{in: "", dir: ""},
		{in: "run-store", dir: "run-store"},
		{in: "run-store:1.5GB", dir: "run-store", budget: 3 << 29},
		{in: "a/b:100", dir: "a/b", budget: 100},
		{in: "a:2KiB", dir: "a", budget: 2048},
		{in: "a:64M", dir: "a", budget: 64 << 20},
		{in: "a:bogus", err: true},
		{in: ":1GB", err: true},
	}
	for _, c := range cases {
		got, err := ParseFlag(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseFlag(%q): want error, got %+v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFlag(%q): %v", c.in, err)
			continue
		}
		if got.Dir != c.dir || got.Budget != c.budget {
			t.Errorf("ParseFlag(%q) = %+v, want dir %q budget %d", c.in, got, c.dir, c.budget)
		}
	}
}

func TestParseBudgetRejects(t *testing.T) {
	for _, in := range []string{"", "GB", "-1", "1TB", "1.2.3MB",
		"NaN", "Inf", "+Inf", "-Inf", "1e30G", "16e18B", "8589934592G"} {
		if v, err := ParseBudget(in); err == nil {
			t.Errorf("ParseBudget(%q) = %d, want error", in, v)
		}
	}
}

// TestArenaStraddle exercises records crossing chunk boundaries with a
// minimum-size 4 KiB chunk: appends, spans, chunked compares, and the
// fault counter.
func TestArenaStraddle(t *testing.T) {
	sink := obs.NewSink()
	s, err := openDir(Options{Dir: t.TempDir()}, 4<<10, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var want []byte
	var offs []int64
	rec := make([]byte, 100+19*90)
	for i := 0; i < 20; i++ {
		for j := range rec {
			rec[j] = byte(i + j)
		}
		off, err := s.Keys.Append(rec[:100+i*90])
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(len(want)) {
			t.Fatalf("append %d: offset %d, want %d", i, off, len(want))
		}
		offs = append(offs, off)
		want = append(want, rec[:100+i*90]...)
	}
	if s.Keys.Len() != int64(len(want)) {
		t.Fatalf("Len() = %d, want %d", s.Keys.Len(), len(want))
	}
	offs = append(offs, s.Keys.Len())
	for i := 0; i+1 < len(offs); i++ {
		if got := s.Keys.Span(offs[i], offs[i+1]); !bytes.Equal(got, want[offs[i]:offs[i+1]]) {
			t.Fatalf("Span of record %d differs", i)
		}
	}
	if !bytes.Equal(s.Keys.Span(0, s.Keys.Len()), want) {
		t.Fatal("Span over the whole straddled arena differs")
	}
	if !s.Keys.Equal(0, want) {
		t.Fatal("Equal over the whole straddled arena = false")
	}
	if s.Keys.Equal(1, want[:len(want)-1]) {
		t.Fatal("Equal at shifted offset = true")
	}
	var flat []byte
	for _, sec := range s.Keys.Sections(s.Keys.Len()) {
		flat = append(flat, sec...)
	}
	if !bytes.Equal(flat, want) {
		t.Fatal("Sections do not reassemble the arena")
	}
	snap := sink.Snapshot()
	if snap.Counters["store.spilled_bytes"] != int64(len(want)) {
		t.Fatalf("spilled_bytes = %d, want %d", snap.Counters["store.spilled_bytes"], len(want))
	}
	if snap.Counters["store.arena_faults"] == 0 {
		t.Fatal("straddling appends and compares counted no arena faults")
	}
}

// TestCopyFrom: a copy sees its source's keys and records, what it
// appends never reaches the source, and copying again into the same
// store, after it grew, starts from the source once more.
func TestCopyFrom(t *testing.T) {
	s, err := Open(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "bb", "ccc"} {
		if _, err := s.Intern([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Meta.Append([]byte("m")); err != nil {
		t.Fatal(err)
	}
	c, err := Open(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		c.CopyFrom(s)
		for k := 0; k < 20*round; k++ {
			if _, err := c.Intern([]byte{'x', byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
		if id, err := c.Intern([]byte("dddd")); err != nil || id != 3+20*round {
			t.Fatalf("round %d: copy Intern = %d, %v; want %d", round, id, err, 3+20*round)
		}
		if id, ok := c.Lookup([]byte("bb")); !ok || id != 1 {
			t.Fatalf("round %d: copy Lookup(bb) = %d, %v", round, id, ok)
		}
		if _, err := c.Meta.Append([]byte("n")); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Lookup([]byte("dddd")); ok || s.Count() != 3 || s.Keys.Len() != 6 || s.Meta.Len() != 1 {
			t.Fatalf("round %d: the copy's appends reached the source: count %d, %d key bytes, %d meta bytes",
				round, s.Count(), s.Keys.Len(), s.Meta.Len())
		}
		if got := string(c.Keys.Span(0, 3)); got != "abb" {
			t.Fatalf("round %d: copy keys start %q", round, got)
		}
		if got := string(c.Meta.Span(0, c.Meta.Len())); got != "mn" {
			t.Fatalf("round %d: copy meta %q", round, got)
		}
	}
}

func TestTableInternLookupGrow(t *testing.T) {
	for _, opts := range []Options{{}, {Dir: t.TempDir()}} {
		testInternLookupGrow(t, opts)
	}
}

func testInternLookupGrow(t *testing.T, opts Options) {
	s, err := Open(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Enough keys to grow the table many times over.
	const n = 200000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%d-%d", i, i*i)) }
	for i := 0; i < n; i++ {
		if _, ok := s.Lookup(key(i)); ok {
			t.Fatalf("key %d present before intern", i)
		}
		id, err := s.Intern(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("Intern assigned id %d, want %d", id, i)
		}
	}
	if s.Count() != n {
		t.Fatalf("Count() = %d, want %d", s.Count(), n)
	}
	for i := 0; i < n; i++ {
		id, ok := s.Lookup(key(i))
		if !ok || id != i {
			t.Fatalf("Lookup(key %d) = %d,%v", i, id, ok)
		}
	}
	if _, ok := s.Lookup([]byte("absent")); ok {
		t.Fatal("Lookup of absent key succeeded")
	}
	if _, err := s.Intern(nil); err == nil {
		t.Fatal("Intern of empty key succeeded")
	}
}

func TestCloseRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Keys.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"keys.arena", "meta.arena", "edges.arena"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s missing before Close: %v", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"keys.arena", "meta.arena", "edges.arena"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s survives Close (err %v)", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestOpenTruncatesLeftovers verifies crash leftovers do not leak into
// a new run: reopening a dir starts the arenas empty.
func TestOpenTruncatesLeftovers(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "keys.arena"), bytes.Repeat([]byte("x"), 1<<16), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Keys.Len() != 0 {
		t.Fatalf("reopened arena Len() = %d, want 0", s.Keys.Len())
	}
}

func TestCheckBudget(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Budget: 1}, obs.NewSink())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CheckBudget(); !errors.Is(err, ErrBudget) {
		t.Fatalf("1-byte budget: err = %v, want ErrBudget", err)
	}
	s.budget = 0
	if err := s.CheckBudget(); err != nil {
		t.Fatalf("unbounded budget: %v", err)
	}
}

// TestStoreReset checks that a reset store is empty — lookups miss and
// the arenas hold nothing — interns again from id 0, and keeps its
// table and arena capacity, in both backends.
func TestStoreReset(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s, err := openStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		keys := make([][]byte, 100)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%03d", i))
			if id, err := s.Intern(keys[i]); err != nil || id != i {
				t.Fatalf("dir=%q: intern %d: id %d, %v", dir, i, id, err)
			}
		}
		if _, err := s.Meta.Append([]byte("meta")); err != nil {
			t.Fatal(err)
		}
		slots, keyCap := len(s.slots), cap(s.Keys.chunks[0])

		s.Reset()
		if s.Count() != 0 || s.Keys.Len() != 0 || s.Meta.Len() != 0 || s.Edges.Len() != 0 {
			t.Fatalf("dir=%q: after Reset count %d, arena lengths %d/%d/%d", dir,
				s.Count(), s.Keys.Len(), s.Meta.Len(), s.Edges.Len())
		}
		for _, k := range keys {
			if id, ok := s.Lookup(k); ok {
				t.Fatalf("dir=%q: %q found as %d after Reset", dir, k, id)
			}
		}
		if len(s.slots) != slots || cap(s.Keys.chunks[0]) != keyCap {
			t.Fatalf("dir=%q: Reset dropped capacity: %d slots (was %d), key arena cap %d (was %d)", dir,
				len(s.slots), slots, cap(s.Keys.chunks[0]), keyCap)
		}
		for i, k := range keys[50:] {
			if id, err := s.Intern(k); err != nil || id != i {
				t.Fatalf("dir=%q: intern after Reset: id %d, want %d (%v)", dir, id, i, err)
			}
		}
		for i, k := range keys {
			id, ok := s.Lookup(k)
			if want := i >= 50; ok != want || ok && id != i-50 {
				t.Fatalf("dir=%q: Lookup(%q) = %d, %v after re-interning", dir, k, id, ok)
			}
		}
		if got := s.Keys.Span(0, int64(len(keys[50]))); !bytes.Equal(got, keys[50]) {
			t.Fatalf("dir=%q: first key after Reset reads %q", dir, got)
		}
	}
}

func openStore(dir string) (*Store, error) {
	if dir == "" {
		return Open(Options{}, nil)
	}
	return openDir(Options{Dir: dir}, 4<<10, nil)
}
