package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"os"

	"setagree/internal/obs"
)

// Arena is an append-only byte log addressed in power-of-two chunks:
// byte off lives at chunks[off>>shift][off&mask]. A directory store's
// chunks are mmap'd windows of one file, which the kernel may evict; a
// heap arena's are heapChunkBytes slices, except the first, which grows
// by append up to the chunk size, so a small store (a sweep's check of a
// few dozen states, one BFS shard's level-local keys) takes no full
// chunk. A chunk's length is the bytes written to it, and every chunk
// but the last is full. Bytes in a chunk at its capacity never move, so
// readers (including the checkpoint writer's background goroutine) hold
// stable views of the committed prefix while the single appender
// extends the tail; a view into a first heap chunk that later grows
// keeps reading the old array, whose bytes are never rewritten. Records
// are not padded to chunk boundaries; a record straddling one is read
// across chunks, and a directory store counts it on the
// store.arena_faults counter.
type Arena struct {
	f      *os.File
	path   string
	chunks [][]byte
	size   int64
	shift  uint
	mask   int64

	spilled *obs.Counter
	faults  *obs.Counter
}

// heapChunkBytes is the chunk size of a heap store's arenas. It is
// small so that the partly filled last chunk of each arena costs
// little: 16-MiB heap chunks kept a higher peak heap on alg2 n=7.
const heapChunkBytes = 1 << 20

// newArena creates (truncating) the arena file at path with power-of-two
// chunkBytes chunks.
func newArena(path string, chunkBytes int64, spilled, faults *obs.Counter) (*Arena, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	a := newHeapArena(chunkBytes)
	a.f, a.path, a.spilled, a.faults = f, path, spilled, faults
	return a, nil
}

// newHeapArena returns an empty heap-backed arena with power-of-two
// chunkBytes chunks.
func newHeapArena(chunkBytes int64) *Arena {
	return &Arena{shift: uint(bits.TrailingZeros64(uint64(chunkBytes))), mask: chunkBytes - 1}
}

// copyFrom makes a, a heap arena, hold a copy of src's bytes, chunk by
// chunk into a's own chunks. Both must be heap arenas of one chunk size.
func (a *Arena) copyFrom(src *Arena) {
	if a.f != nil || src.f != nil || a.shift != src.shift {
		panic("store: internal: copyFrom needs heap arenas of one chunk size")
	}
	a.reset()
	for _, c := range src.chunks {
		if len(c) == 0 {
			break
		}
		a.Append(c) // a heap arena's Append cannot fail
	}
}

// reset empties the arena, keeping every chunk for the next appends to
// overwrite.
func (a *Arena) reset() {
	for i, c := range a.chunks {
		a.chunks[i] = c[:0]
	}
	a.size = 0
}

// Len returns the number of bytes appended so far.
func (a *Arena) Len() int64 { return a.size }

// Append writes b at the end of the arena and returns its start offset.
func (a *Arena) Append(b []byte) (int64, error) {
	off := a.size
	a.spilled.Add(int64(len(b)))
	if i := int(off >> a.shift); i < len(a.chunks) && off&a.mask+int64(len(b)) <= a.mask+1 {
		// The record fits in the current chunk: one append, which only
		// a first heap chunk below the chunk size can reallocate.
		a.chunks[i] = append(a.chunks[i], b...)
		a.size += int64(len(b))
		return off, nil
	}
	if len(b) > 0 && off>>a.shift != (off+int64(len(b))-1)>>a.shift {
		a.faults.Inc()
	}
	for len(b) > 0 {
		i := int(a.size >> a.shift)
		if i == len(a.chunks) {
			if err := a.addChunk(); err != nil {
				return 0, err
			}
		}
		c := a.chunks[i]
		n := min(len(b), int(a.mask+1)-len(c))
		a.chunks[i] = append(c, b[:n]...)
		a.size += int64(n)
		b = b[n:]
	}
	return off, nil
}

// addChunk adds an empty chunk: on the heap a fresh one (nil for the
// first, which grows by append), else the next chunk of the arena file,
// mapped.
func (a *Arena) addChunk() error {
	chunkBytes := a.mask + 1
	if a.f == nil {
		var c []byte
		if len(a.chunks) > 0 {
			c = make([]byte, 0, chunkBytes)
		}
		a.chunks = append(a.chunks, c)
		return nil
	}
	end := (int64(len(a.chunks)) + 1) * chunkBytes
	if err := a.f.Truncate(end); err != nil {
		return fmt.Errorf("store: grow %s: %w", a.path, err)
	}
	c, err := mapChunk(a.f, end-chunkBytes, int(chunkBytes))
	if err != nil {
		return fmt.Errorf("store: map %s: %w", a.path, err)
	}
	a.chunks = append(a.chunks, c[:0])
	return nil
}

// Span returns the bytes at [start, end): a view into the arena, or a
// copy when the range straddles a chunk boundary. The range must lie
// below Len(); the arena is the explorer's own write-once data, so a
// bad range is an internal invariant failure and panics via the bounds
// check.
func (a *Arena) Span(start, end int64) []byte {
	c := a.chunks[start>>a.shift]
	co := start & a.mask
	if n := end - start; co+n <= int64(len(c)) {
		return c[co : co+n : co+n]
	}
	a.faults.Inc()
	return bytes.Join(a.views(start, end), nil)
}

// Equal reports whether the bytes at [off, off+len(key)) equal key,
// comparing chunk-wise without copying.
func (a *Arena) Equal(off int64, key []byte) bool {
	for len(key) > 0 {
		c := a.chunks[off>>a.shift]
		co := off & a.mask
		n := int64(len(c)) - co
		if int64(len(key)) <= n {
			return bytes.Equal(c[co:co+int64(len(key))], key)
		}
		a.faults.Inc()
		if !bytes.Equal(c[co:], key[:n]) {
			return false
		}
		key = key[n:]
		off += n
	}
	return true
}

// Sections returns chunk-backed views covering [0, upTo), suitable for
// checkpoint.WriteV: zero-copy, and stable while the appender only
// writes at or beyond upTo.
func (a *Arena) Sections(upTo int64) [][]byte { return a.views(0, upTo) }

// views returns chunk-backed views covering [start, end).
func (a *Arena) views(start, end int64) [][]byte {
	var out [][]byte
	for off := start; off < end; {
		c := a.chunks[off>>a.shift]
		co := off & a.mask
		n := min(int64(len(c))-co, end-off)
		out = append(out, c[co:co+n])
		off += n
	}
	return out
}

// close unmaps the chunks and removes the backing file (the arena is
// scratch; the checkpoint container is the durable artifact).
func (a *Arena) close() error {
	var err error
	for _, c := range a.chunks {
		err = errors.Join(err, unmapChunk(c[:cap(c)]))
	}
	a.chunks = nil
	if a.f != nil {
		err = errors.Join(err, a.f.Close())
		a.f = nil
		err = errors.Join(err, os.Remove(a.path))
	}
	return err
}
