// Package store is the explorer's configuration store: one hash table
// over two append-only arenas. The explorer keeps everything a
// level-synchronized BFS only reads back rarely — interned
// configuration keys, from which it also decodes each configuration's
// process outcomes, and the edge lists of completed levels — in the
// store, while the active frontier stays live in memory. The table's
// 8-byte slots hold only a key's hash and id; an id → offset column
// locates the key's bytes in the Keys arena, for the comparison that
// confirms a probe and for Key.
//
// A store is heap-backed unless Options.Dir names a directory; then
// its arenas are mmap'd files there, which the kernel may evict under
// memory pressure. Both backends hold the same table and the same
// record bytes. A directory store is SCRATCH, not durable state: arena
// files are truncated on Open and removed on Close, and a resumed run
// rebuilds them from the checkpoint container (which remains the
// single durable artifact). Leftover files from a crashed run are
// therefore harmless.
//
// Concurrency contract: the explorer alternates between an expand phase
// (the table is frozen; Lookup may run from any number of goroutines)
// and a single-threaded merge phase (Intern and Append mutate). The
// store relies on that level discipline instead of locks.
package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"setagree/internal/obs"
)

// ErrBudget reports that the explorer's live heap exceeded the
// configured in-memory budget at a level barrier.
var ErrBudget = errors.New("store: in-memory budget exceeded")

// Options configures a configuration store. The zero value selects a
// heap-backed store with no budget.
type Options struct {
	// Dir is the directory holding the store's arena files; empty keeps
	// the arenas on the heap. The directory is created if absent;
	// existing arena files in it are truncated (the store is scratch).
	Dir string
	// Budget, when > 0, bounds the explorer's live heap in bytes,
	// checked at every level barrier: if the heap is still over budget
	// after a forced GC, the run fails with an error wrapping
	// ErrBudget. Zero means no bound.
	Budget int64
}

// Enabled reports whether the options name a store directory.
func (o Options) Enabled() bool { return o.Dir != "" }

// ParseFlag parses the CLI form "dir" or "dir:budget" (e.g.
// "./run-store:1.5GB"); see ParseBudget for the budget syntax.
func ParseFlag(s string) (Options, error) {
	if s == "" {
		return Options{}, nil
	}
	if i := strings.LastIndexByte(s, ':'); i >= 0 {
		budget, err := ParseBudget(s[i+1:])
		if err != nil {
			return Options{}, fmt.Errorf("store: flag %q: %w", s, err)
		}
		if i == 0 {
			return Options{}, fmt.Errorf("store: flag %q: empty directory", s)
		}
		return Options{Dir: s[:i], Budget: budget}, nil
	}
	return Options{Dir: s}, nil
}

// ParseBudget parses a byte count: a number (decimals allowed) with an
// optional suffix B, K/KB/KiB, M/MB/MiB, or G/GB/GiB. All multiples are
// binary (1K = 1024 bytes). Negative, non-finite, and ≥ 2⁶³-byte counts
// are rejected.
func ParseBudget(s string) (int64, error) {
	num := strings.TrimRight(s, "BbKkMmGgIi")
	mult := float64(1)
	switch strings.ToUpper(s[len(num):]) {
	case "", "B":
	case "K", "KB", "KIB":
		mult = 1 << 10
	case "M", "MB", "MIB":
		mult = 1 << 20
	case "G", "GB", "GIB":
		mult = 1 << 30
	default:
		return 0, fmt.Errorf("bad byte suffix %q", s[len(num):])
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || !(v >= 0) || v*mult >= 1<<63 {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	return int64(v * mult), nil
}

// defaultChunkBytes is the mmap chunk size of a directory store's
// arenas.
const defaultChunkBytes = 1 << 24 // 16 MiB

// castagnoli selects CRC-32C, which hash/crc32 computes with the CPU's
// CRC instruction where there is one. Unlike hash/maphash it is
// unseeded, so identical explorations build identical stores.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// slot is one open-addressing table entry: the key's hash and its id
// plus one; id1 == 0 marks an empty slot. The key's bytes are found
// through the id → offset column koff. In-memory index cost: 8 B per
// slot, 2 to 4 slots per key at the 1/2 maximum load factor, plus 8 B
// per key for its offset.
type slot struct {
	hash uint32
	id1  uint32
}

// Store owns the two arenas and the key table. Open one per
// exploration; a directory store is not reusable after Close.
type Store struct {
	dir    string
	budget int64

	// Keys holds the interned configuration keys, Edges the explorer's
	// encoded edge lists (checkpoint section format). The explorer
	// appends and decodes; the store only indexes Keys.
	Keys  *Arena
	Edges *Arena

	slots []slot
	// koff[id] is key id's offset in Keys; keys are appended in id
	// order, so key id ends where key id+1 starts (or at Keys.Len()).
	koff    []int64
	heapMax *obs.Gauge
}

// Open creates a store. With opts.Dir empty the arenas live on the heap
// and sink is ignored. Otherwise Open creates (or truncates) the arena
// files under opts.Dir, and metrics go to sink (nil disables them): the
// store.spilled_bytes counter totals bytes appended to the arenas,
// store.arena_faults counts appends and reads that straddled a chunk
// boundary, and the store.heap_bytes_max gauge high-water-marks the
// heap seen by budget checks.
func Open(opts Options, sink *obs.Sink) (*Store, error) {
	if !opts.Enabled() {
		return openHeap(opts.Budget, heapChunkBytes), nil
	}
	return openDir(opts, defaultChunkBytes, sink)
}

// openHeap returns a heap store whose arenas use power-of-two
// chunkBytes chunks.
func openHeap(budget, chunkBytes int64) *Store {
	return &Store{budget: budget, Keys: newHeapArena(chunkBytes), Edges: newHeapArena(chunkBytes)}
}

// openDir opens a directory store whose arenas map power-of-two
// chunkBytes chunks.
func openDir(opts Options, chunkBytes int64, sink *obs.Sink) (*Store, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	spilled := sink.Counter("store.spilled_bytes")
	faults := sink.Counter("store.arena_faults")
	s := &Store{
		dir:     opts.Dir,
		budget:  opts.Budget,
		heapMax: sink.Gauge("store.heap_bytes_max"),
	}
	for _, a := range []struct {
		dst  **Arena
		name string
	}{{&s.Keys, "keys.arena"}, {&s.Edges, "edges.arena"}} {
		ar, err := newArena(filepath.Join(opts.Dir, a.name), chunkBytes, spilled, faults)
		if err != nil {
			s.Close()
			return nil, err
		}
		*a.dst = ar
	}
	return s, nil
}

// CopyFrom makes s a copy of src, both heap-backed: the same keys, ids,
// records and table, in s's own memory, so appends to either never
// reach the other, and src is only read. s keeps its capacity, so
// copying into a store that has held as much before allocates nothing.
func (s *Store) CopyFrom(src *Store) {
	if len(s.slots) > len(src.slots) {
		// Rehash into s's larger table rather than shrink it: a copy
		// that goes on to intern as many keys as s held before then
		// never grows the table again. Ids live in the slots, so
		// lookups are unchanged.
		clear(s.slots)
		for _, sl := range src.slots {
			if sl.id1 != 0 {
				s.insert(sl)
			}
		}
	} else {
		s.slots = append(s.slots[:0], src.slots...)
	}
	s.koff = append(s.koff[:0], src.koff...)
	s.Keys.copyFrom(src.Keys)
	s.Edges.copyFrom(src.Edges)
}

// Close unmaps and removes a directory store's arena files. Idempotent;
// a no-op for heap-backed stores, whose arenas stay readable.
func (s *Store) Close() error {
	if s.dir == "" {
		return nil
	}
	var err error
	for _, a := range []**Arena{&s.Keys, &s.Edges} {
		if *a != nil {
			err = errors.Join(err, (*a).close())
			*a = nil
		}
	}
	return err
}

// Reset empties the store for reuse: no key is interned and the next
// Intern assigns id 0 again. The table keeps its slots and every arena
// keeps all its chunks, heap or mapped, so refilling a reset store to
// its old size allocates nothing. The next appends overwrite the old
// bytes in place, so Reset invalidates every view Span and Sections
// returned.
func (s *Store) Reset() {
	clear(s.slots)
	s.koff = s.koff[:0]
	for _, a := range []*Arena{s.Keys, s.Edges} {
		a.reset()
	}
}

// Count returns the number of interned keys.
func (s *Store) Count() int { return len(s.koff) }

// Key returns the bytes of key id, which must be interned: a view into
// the Keys arena, or a copy when the key straddles a chunk boundary.
func (s *Store) Key(id int) []byte { return s.Keys.Span(s.koff[id], s.keyEnd(id)) }

// keyEnd returns the offset in Keys just past key id.
func (s *Store) keyEnd(id int) int64 {
	if id+1 < len(s.koff) {
		return s.koff[id+1]
	}
	return s.Keys.Len()
}

// Hash returns the table hash of key, which LookupHash and InternHash
// take so that a caller probing several stores with one key hashes it
// once.
func Hash(key []byte) uint32 { return crc32.Checksum(key, castagnoli) }

// Lookup probes the table for key. Safe for concurrent use while no
// Intern is running (the explorer's expand phase).
func (s *Store) Lookup(key []byte) (int, bool) { return s.LookupHash(key, Hash(key)) }

// LookupHash is Lookup for a key whose Hash is h.
func (s *Store) LookupHash(key []byte, h uint32) (int, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	mask := uint32(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := s.slots[i]
		if sl.id1 == 0 {
			return 0, false
		}
		if sl.hash != h {
			continue
		}
		id := int(sl.id1 - 1)
		if off := s.koff[id]; s.keyEnd(id)-off == int64(len(key)) && s.Keys.Equal(off, key) {
			return id, true
		}
	}
}

// Intern appends key to the key arena and indexes it, returning the
// assigned id (the insertion ordinal). The caller has already verified
// the key is absent. Single-threaded (the explorer's merge phase).
func (s *Store) Intern(key []byte) (int, error) { return s.InternHash(key, Hash(key)) }

// InternHash is Intern for a key whose Hash is h.
func (s *Store) InternHash(key []byte, h uint32) (int, error) {
	if len(key) == 0 {
		return 0, errors.New("store: empty key")
	}
	id := len(s.koff)
	if id > 1<<31-2 {
		return 0, fmt.Errorf("store: %d keys exceed the table's id width", id)
	}
	off, err := s.Keys.Append(key)
	if err != nil {
		return 0, err
	}
	if 2*(id+1) > len(s.slots) {
		s.grow()
	}
	s.koff = append(s.koff, off)
	s.insert(slot{hash: h, id1: uint32(id + 1)})
	return id, nil
}

func (s *Store) insert(sl slot) {
	mask := uint32(len(s.slots) - 1)
	for i := sl.hash & mask; ; i = (i + 1) & mask {
		if s.slots[i].id1 == 0 {
			s.slots[i] = sl
			return
		}
	}
}

// grow doubles the table, starting at 8 slots: a store keeps its table
// across Reset, so the start only matters to a store's first fill,
// often a sweep's check or one BFS level's new keys in a shard, which
// are a few dozen keys.
func (s *Store) grow() {
	old := s.slots
	s.slots = make([]slot, max(2*len(old), 8))
	for _, sl := range old {
		if sl.id1 != 0 {
			s.insert(sl)
		}
	}
}

// CheckBudget enforces Options.Budget against the current live heap: if
// HeapAlloc exceeds the budget, a GC is forced (transient garbage must
// not fail a run) and the check repeats; a still-over-budget heap
// returns an error wrapping ErrBudget. Call at level barriers.
func (s *Store) CheckBudget() error {
	if s.budget <= 0 {
		return nil
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if int64(m.HeapAlloc) > s.budget {
		runtime.GC()
		runtime.ReadMemStats(&m)
	}
	s.heapMax.SetMax(int64(m.HeapAlloc))
	if int64(m.HeapAlloc) > s.budget {
		return fmt.Errorf("store: live heap %d bytes over the %d-byte budget: %w",
			m.HeapAlloc, s.budget, ErrBudget)
	}
	return nil
}
