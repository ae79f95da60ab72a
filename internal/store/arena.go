package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"os"

	"setagree/internal/obs"
)

// Arena is an append-only byte log. A directory store's arenas are
// backed by fixed-size mmap'd chunks of one file; chunks never move once
// mapped, so readers (including the checkpoint writer's background
// goroutine) hold stable views of the committed prefix while the single
// appender extends the tail. Records are not padded to chunk
// boundaries; a record straddling one is read across chunks and counted
// on the store.arena_faults counter.
//
// A heap arena is one slice grown by append, addressed as a single
// chunk (shift 63), so reads share the mmap code path. Appending may
// move the slice, but the bytes already handed out stay valid and are
// never rewritten.
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

// newArena creates (truncating) the arena file at path with power-of-two
// chunkBytes chunks.
func newArena(path string, chunkBytes int64, spilled, faults *obs.Counter) (*Arena, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Arena{
		f:       f,
		path:    path,
		shift:   uint(bits.TrailingZeros64(uint64(chunkBytes))),
		mask:    chunkBytes - 1,
		spilled: spilled,
		faults:  faults,
	}, nil
}

// newHeapArena returns an empty heap-backed arena.
func newHeapArena() *Arena {
	return &Arena{chunks: [][]byte{nil}, shift: 63, mask: 1<<63 - 1}
}

// copyFrom makes a, a heap arena, hold a copy of src's bytes, reusing
// a's slice. Both must be heap arenas.
func (a *Arena) copyFrom(src *Arena) {
	if a.f != nil || src.f != nil {
		panic("store: internal: copyFrom on a directory arena")
	}
	a.chunks[0] = append(a.chunks[0][:0], src.chunks[0]...)
	a.size = src.size
}

// reset empties the arena, keeping its heap slice or mapped chunks for
// the next appends to overwrite.
func (a *Arena) reset() {
	if a.f == nil {
		a.chunks[0] = a.chunks[0][:0]
	}
	a.size = 0
}

// Len returns the number of bytes appended so far.
func (a *Arena) Len() int64 { return a.size }

// Append writes b at the end of the arena and returns its start offset.
func (a *Arena) Append(b []byte) (int64, error) {
	off := a.size
	if a.f == nil {
		a.chunks[0] = append(a.chunks[0], b...)
		a.size += int64(len(b))
		return off, nil
	}
	if len(b) == 0 {
		return off, nil
	}
	if off>>a.shift != (off+int64(len(b))-1)>>a.shift {
		a.faults.Inc()
	}
	a.spilled.Add(int64(len(b)))
	for len(b) > 0 {
		if a.size == int64(len(a.chunks))<<a.shift {
			if err := a.addChunk(); err != nil {
				return 0, err
			}
		}
		c := a.chunks[a.size>>a.shift]
		n := copy(c[a.size&a.mask:], b)
		a.size += int64(n)
		b = b[n:]
	}
	return off, nil
}

func (a *Arena) addChunk() error {
	chunkBytes := a.mask + 1
	end := (int64(len(a.chunks)) + 1) * chunkBytes
	if err := a.f.Truncate(end); err != nil {
		return fmt.Errorf("store: grow %s: %w", a.path, err)
	}
	c, err := mapChunk(a.f, end-chunkBytes, int(chunkBytes))
	if err != nil {
		return fmt.Errorf("store: map %s: %w", a.path, err)
	}
	a.chunks = append(a.chunks, c)
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
		err = errors.Join(err, unmapChunk(c))
	}
	a.chunks = nil
	if a.f != nil {
		err = errors.Join(err, a.f.Close())
		a.f = nil
		err = errors.Join(err, os.Remove(a.path))
	}
	return err
}
