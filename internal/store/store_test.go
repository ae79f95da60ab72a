package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// minimum-size 4 KiB chunk, on both backends: appends, spans, chunked
// compares, and, in a directory store, the fault counter.
func TestArenaStraddle(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		sink := obs.NewSink()
		s, err := openStore(dir, 4<<10, sink)
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
				t.Fatalf("dir=%q: append %d: offset %d, want %d", dir, i, off, len(want))
			}
			offs = append(offs, off)
			want = append(want, rec[:100+i*90]...)
		}
		if s.Keys.Len() != int64(len(want)) {
			t.Fatalf("dir=%q: Len() = %d, want %d", dir, s.Keys.Len(), len(want))
		}
		if len(s.Keys.chunks) < 3 {
			t.Fatalf("dir=%q: %d chunks, want a record log over several", dir, len(s.Keys.chunks))
		}
		offs = append(offs, s.Keys.Len())
		for i := 0; i+1 < len(offs); i++ {
			if got := s.Keys.Span(offs[i], offs[i+1]); !bytes.Equal(got, want[offs[i]:offs[i+1]]) {
				t.Fatalf("dir=%q: Span of record %d differs", dir, i)
			}
		}
		if !bytes.Equal(s.Keys.Span(0, s.Keys.Len()), want) {
			t.Fatalf("dir=%q: Span over the whole straddled arena differs", dir)
		}
		if !s.Keys.Equal(0, want) {
			t.Fatalf("dir=%q: Equal over the whole straddled arena = false", dir)
		}
		if s.Keys.Equal(1, want[:len(want)-1]) {
			t.Fatalf("dir=%q: Equal at shifted offset = true", dir)
		}
		var flat []byte
		for _, sec := range s.Keys.Sections(s.Keys.Len()) {
			flat = append(flat, sec...)
		}
		if !bytes.Equal(flat, want) {
			t.Fatalf("dir=%q: Sections do not reassemble the arena", dir)
		}
		snap := sink.Snapshot()
		if dir == "" {
			if len(snap.Counters) != 0 {
				t.Fatalf("heap arena recorded store metrics: %v", snap.Counters)
			}
			continue
		}
		if snap.Counters["store.spilled_bytes"] != int64(len(want)) {
			t.Fatalf("spilled_bytes = %d, want %d", snap.Counters["store.spilled_bytes"], len(want))
		}
		if snap.Counters["store.arena_faults"] == 0 {
			t.Fatal("straddling appends and compares counted no arena faults")
		}
	}
}

// TestArenaViewsStable checks that committed bytes never move: Span and
// Sections views taken early still point at the same memory, holding
// the same bytes, after several more chunks of appends, on both
// backends. A view into a heap arena's first chunk taken while that
// chunk still grows keeps its bytes.
func TestArenaViewsStable(t *testing.T) {
	const chunk = 4 << 10
	for _, dir := range []string{"", t.TempDir()} {
		s, err := openStore(dir, chunk, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		a := s.Edges
		rec := make([]byte, 1000)
		fill := func(n int64) {
			for a.Len() < n {
				for j := range rec {
					rec[j] = byte(a.Len()) ^ byte(j)
				}
				if _, err := a.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		fill(1)
		early := a.Span(10, 60)
		earlyWant := bytes.Clone(early)
		fill(chunk + 1) // the first chunk full, the second barely begun
		views := [][]byte{a.Span(100, 200), a.Span(chunk+10, chunk+300)}
		views = append(views, a.Sections(a.Len())...)
		if len(views) != 4 {
			t.Fatalf("dir=%q: %d views, want 2 spans and 2 sections", dir, len(views))
		}
		want := make([][]byte, len(views))
		for i, v := range views {
			want[i] = bytes.Clone(v)
		}
		upTo := a.Len()
		fill(6 * chunk)
		again := [][]byte{a.Span(100, 200), a.Span(chunk+10, chunk+300)}
		again = append(again, a.Sections(upTo)...)
		for i, v := range views {
			if &v[0] != &again[i][0] {
				t.Fatalf("dir=%q: view %d moved after %d more bytes", dir, i, a.Len()-upTo)
			}
			if !bytes.Equal(v, want[i]) || !bytes.Equal(again[i], want[i]) {
				t.Fatalf("dir=%q: view %d changed after more appends", dir, i)
			}
		}
		if !bytes.Equal(early, earlyWant) || !bytes.Equal(a.Span(10, 60), earlyWant) {
			t.Fatalf("dir=%q: a view taken in the growing first chunk changed", dir)
		}
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
	if _, err := s.Edges.Append([]byte("m")); err != nil {
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
		if _, err := c.Edges.Append([]byte("n")); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Lookup([]byte("dddd")); ok || s.Count() != 3 || s.Keys.Len() != 6 || s.Edges.Len() != 1 {
			t.Fatalf("round %d: the copy's appends reached the source: count %d, %d key bytes, %d edge bytes",
				round, s.Count(), s.Keys.Len(), s.Edges.Len())
		}
		if got := string(c.Keys.Span(0, 3)); got != "abb" {
			t.Fatalf("round %d: copy keys start %q", round, got)
		}
		if got := string(c.Edges.Span(0, c.Edges.Len())); got != "mn" {
			t.Fatalf("round %d: copy edges %q", round, got)
		}
	}
}

// TestCopyFromChunks copies a source spanning several heap chunks into
// a destination that held more chunks and into one that held fewer:
// each copy reads the source's keys, ids and records, and what either
// side appends afterwards never reaches the other.
func TestCopyFromChunks(t *testing.T) {
	const chunk = 256
	key := func(p string, i int) []byte { return []byte(fmt.Sprintf("%s-%04d-%020d", p, i, i)) }
	fill := func(s *Store, p string, n int) {
		for i := 0; i < n; i++ {
			if _, err := s.Intern(key(p, i)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Edges.Append(key(p+"m", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, held := range []int{200, 5} {
		src := openHeap(0, chunk)
		fill(src, "src", 40)
		dst := openHeap(0, chunk)
		fill(dst, "old", held)
		if n, m := len(src.Keys.chunks), len(dst.Keys.chunks); n < 3 || (held > 40) != (m > n) {
			t.Fatalf("held %d: source has %d key chunks, destination %d", held, n, m)
		}
		srcKeys, srcEdges := bytes.Clone(src.Keys.Span(0, src.Keys.Len())), bytes.Clone(src.Edges.Span(0, src.Edges.Len()))

		dst.CopyFrom(src)
		check := func(s *Store, who string, extra int) {
			t.Helper()
			if s.Count() != 40+extra {
				t.Fatalf("held %d: %s holds %d keys, want %d", held, who, s.Count(), 40+extra)
			}
			for i := 0; i < 40; i++ {
				if id, ok := s.Lookup(key("src", i)); !ok || id != i {
					t.Fatalf("held %d: %s Lookup(src key %d) = %d, %v", held, who, i, id, ok)
				}
			}
			if got := s.Keys.Span(0, int64(len(srcKeys))); !bytes.Equal(got, srcKeys) {
				t.Fatalf("held %d: %s key bytes differ from the source's", held, who)
			}
			if got := s.Edges.Span(0, int64(len(srcEdges))); !bytes.Equal(got, srcEdges) {
				t.Fatalf("held %d: %s edge bytes differ from the source's", held, who)
			}
		}
		check(dst, "copy", 0)
		if dst.Keys.Len() != src.Keys.Len() || dst.Edges.Len() != src.Edges.Len() {
			t.Fatalf("held %d: copy lengths %d/%d, source %d/%d", held,
				dst.Keys.Len(), dst.Edges.Len(), src.Keys.Len(), src.Edges.Len())
		}
		if _, ok := dst.Lookup(key("old", 0)); ok {
			t.Fatalf("held %d: the copy still finds a key it held before", held)
		}
		for i, c := range src.Keys.chunks {
			if len(c) > 0 && &dst.Keys.chunks[i][0] == &c[0] {
				t.Fatalf("held %d: key chunk %d shared by source and copy", held, i)
			}
		}

		fill(dst, "dst", 30) // the copy grows past the source
		fill(src, "more", 30)
		check(dst, "copy", 30)
		check(src, "source", 30)
		for i := 0; i < 30; i++ {
			if id, ok := dst.Lookup(key("dst", i)); !ok || id != 40+i {
				t.Fatalf("held %d: copy Lookup(its key %d) = %d, %v", held, i, id, ok)
			}
			if _, ok := src.Lookup(key("dst", i)); ok {
				t.Fatalf("held %d: the copy's key %d reached the source", held, i)
			}
			if id, ok := src.Lookup(key("more", i)); !ok || id != 40+i {
				t.Fatalf("held %d: source Lookup(its key %d) = %d, %v", held, i, id, ok)
			}
			if _, ok := dst.Lookup(key("more", i)); ok {
				t.Fatalf("held %d: the source's key %d reached the copy", held, i)
			}
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
	// Even keys go through Intern, odd ones through InternHash, so each
	// call finds the keys the other interned.
	for i := 0; i < n; i++ {
		if _, ok := s.Lookup(key(i)); ok {
			t.Fatalf("key %d present before intern", i)
		}
		if _, ok := s.LookupHash(key(i), Hash(key(i))); ok {
			t.Fatalf("key %d present before intern (hashed lookup)", i)
		}
		intern := s.Intern
		if i%2 == 1 {
			intern = func(k []byte) (int, error) { return s.InternHash(k, Hash(k)) }
		}
		id, err := intern(key(i))
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
		if hid, hok := s.LookupHash(key(i), Hash(key(i))); hid != id || hok != ok {
			t.Fatalf("LookupHash(key %d) = %d,%v, Lookup = %d,%v", i, hid, hok, id, ok)
		}
	}
	if _, ok := s.Lookup([]byte("absent")); ok {
		t.Fatal("Lookup of absent key succeeded")
	}
	if _, ok := s.LookupHash([]byte("absent"), Hash([]byte("absent"))); ok {
		t.Fatal("LookupHash of absent key succeeded")
	}
	if _, err := s.InternHash(nil, Hash(nil)); err == nil {
		t.Fatal("InternHash of empty key succeeded")
	}
	if _, err := s.Intern(nil); err == nil {
		t.Fatal("Intern of empty key succeeded")
	}
}

// hashCollisions returns two pairs of distinct keys with equal Hash,
// found by brute force: one pair of equal length (8 bytes each) and one
// of unequal length (4 and 5 bytes). Key i is the first n bytes of
// i·φ64: CRCs of equal-length keys that differ only in their low 31
// bits never collide, so the keys spread over all their bits.
func hashCollisions(t *testing.T) (equalLen, unequalLen [2][]byte) {
	t.Helper()
	le := func(i uint64, n int) []byte { return binary.LittleEndian.AppendUint64(nil, i*0x9e3779b97f4a7c15)[:n] }
	seen := map[uint32]uint64{}
	found := false
	for i := uint64(1); i < 1<<22 && !found; i++ {
		k := le(i, 8)
		if j, ok := seen[Hash(k)]; ok {
			equalLen, found = [2][]byte{le(j, 8), k}, true
		}
		seen[Hash(k)] = i
	}
	if !found {
		t.Fatal("no equal-length collision among 2^22 keys")
	}
	clear(seen)
	for i := uint64(0); i < 1<<17; i++ {
		seen[Hash(le(i, 4))] = i
	}
	for i := uint64(0); i < 1<<24; i++ {
		k := le(i, 5)
		if j, ok := seen[Hash(k)]; ok {
			return equalLen, [2][]byte{le(j, 4), k}
		}
	}
	t.Fatal("no 4-byte key collides with a 5-byte one")
	return
}

// TestTableHashCollisions: keys whose hashes are equal, of equal and of
// unequal length, intern to distinct ids, and each looks up to its own
// id while the table grows, after Reset, and in copies made by
// CopyFrom into a store with a smaller table and into one with a larger
// table. The table holds only hashes and ids, so this is what the key
// comparison through the offset column decides.
func TestTableHashCollisions(t *testing.T) {
	equalLen, unequalLen := hashCollisions(t)
	colliding := [][]byte{equalLen[0], equalLen[1], unequalLen[0], unequalLen[1]}
	filler := func(i int) []byte { return []byte(fmt.Sprintf("filler-%d", i)) }
	// check asserts that s holds the colliding keys at ids[k] and the
	// first fill filler keys, each at its own id.
	check := func(what string, s *Store, ids []int, fill int) {
		t.Helper()
		for k, key := range colliding {
			if id, ok := s.Lookup(key); !ok || id != ids[k] {
				t.Fatalf("%s: Lookup(colliding key %d %x) = %d, %v; want %d", what, k, key, id, ok, ids[k])
			}
			if got := s.Key(ids[k]); !bytes.Equal(got, key) {
				t.Fatalf("%s: Key(%d) = %x, want %x", what, ids[k], got, key)
			}
		}
		for i := 0; i < fill; i++ {
			if id, ok := s.Lookup(filler(i)); !ok || !bytes.Equal(s.Key(id), filler(i)) {
				t.Fatalf("%s: Lookup(filler %d) = %d, %v", what, i, id, ok)
			}
		}
		if s.Count() != len(colliding)+fill {
			t.Fatalf("%s: Count() = %d, want %d", what, s.Count(), len(colliding)+fill)
		}
	}
	s, err := Open(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Intern one key of each pair, then fillers that grow the table many
	// times, then the other key of each pair.
	ids := make([]int, len(colliding))
	intern := func(k int) {
		t.Helper()
		if _, ok := s.Lookup(colliding[k]); ok {
			t.Fatalf("colliding key %d found before it was interned", k)
		}
		id, err := s.Intern(colliding[k])
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = id
	}
	const fill = 1000
	for round := 0; round < 2; round++ {
		intern(0)
		intern(3)
		for i := 0; i < fill; i++ {
			if _, err := s.Intern(filler(i)); err != nil {
				t.Fatal(err)
			}
		}
		intern(1)
		intern(2)
		check(fmt.Sprintf("round %d, grown", round), s, ids, fill)
		small, err := Open(Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		small.CopyFrom(s)
		check(fmt.Sprintf("round %d, copied into an empty store", round), small, ids, fill)
		large, err := Open(Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8*fill; i++ {
			if _, err := large.Intern(filler(-1 - i)); err != nil {
				t.Fatal(err)
			}
		}
		large.CopyFrom(s)
		check(fmt.Sprintf("round %d, copied into a larger table", round), large, ids, fill)
		s.Reset()
		for k, key := range colliding {
			if _, ok := s.Lookup(key); ok {
				t.Fatalf("round %d: colliding key %d found after Reset", round, k)
			}
		}
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
	for _, name := range []string{"keys.arena", "edges.arena"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s missing before Close: %v", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"keys.arena", "edges.arena"} {
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
// table and every arena chunk, in both backends: refilling it to its
// old length keeps each chunk's capacity and allocates nothing.
func TestStoreReset(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s, err := openStore(dir, 4<<10, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		keys := make([][]byte, 100)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%03d-%0200d", i, i))
		}
		rec := bytes.Repeat([]byte("edge"), 3<<10)
		fill := func(keys [][]byte) {
			for i, k := range keys {
				if id, err := s.Intern(k); err != nil || id != i {
					t.Fatalf("dir=%q: intern %d: id %d, %v", dir, i, id, err)
				}
			}
			if _, err := s.Edges.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		fill(keys)
		slots, caps := len(s.slots), chunkCaps(s)
		if len(caps[0]) < 3 || len(caps[1]) < 3 {
			t.Fatalf("dir=%q: %d key chunks, %d edge chunks; want several", dir, len(caps[0]), len(caps[1]))
		}

		s.Reset()
		if s.Count() != 0 || s.Keys.Len() != 0 || s.Edges.Len() != 0 {
			t.Fatalf("dir=%q: after Reset count %d, arena lengths %d/%d", dir,
				s.Count(), s.Keys.Len(), s.Edges.Len())
		}
		for _, k := range keys {
			if id, ok := s.Lookup(k); ok {
				t.Fatalf("dir=%q: %q found as %d after Reset", dir, k, id)
			}
		}
		if got := chunkCaps(s); len(s.slots) != slots || !slices.EqualFunc(got, caps, slices.Equal) {
			t.Fatalf("dir=%q: Reset dropped capacity: %d slots (was %d), chunk capacities %v (were %v)", dir,
				len(s.slots), slots, got, caps)
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

		allocs := testing.AllocsPerRun(3, func() {
			s.Reset()
			fill(keys)
		})
		if allocs != 0 {
			t.Fatalf("dir=%q: refilling a reset store allocated %v objects, want 0", dir, allocs)
		}
		if got := chunkCaps(s); len(s.slots) != slots || !slices.EqualFunc(got, caps, slices.Equal) {
			t.Fatalf("dir=%q: refill changed capacity: %d slots (was %d), chunk capacities %v (were %v)", dir,
				len(s.slots), slots, got, caps)
		}
	}
}

// chunkCaps returns the capacity of every chunk of s's arenas.
func chunkCaps(s *Store) [][]int {
	var caps [][]int
	for _, a := range []*Arena{s.Keys, s.Edges} {
		var c []int
		for _, ch := range a.chunks {
			c = append(c, cap(ch))
		}
		caps = append(caps, c)
	}
	return caps
}

// openStore opens a store with power-of-two chunkBytes chunks: on the
// heap when dir is empty, else a directory store in dir.
func openStore(dir string, chunkBytes int64, sink *obs.Sink) (*Store, error) {
	if dir == "" {
		return openHeap(0, chunkBytes), nil
	}
	return openDir(Options{Dir: dir}, chunkBytes, sink)
}
