package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The reference computation is a fixed piece of work that no change to
// the repository changes: look-ups of random keys in two hash tables,
// each holding every key of a domain half its size. The large table
// (4 MiB) lies beyond a core's own caches, so those look-ups wait on
// memory as a model checker's intern table does; the small one (64 KiB)
// stays in them, so those look-ups run at the core's speed. The large
// table alone slows about twice as much as the units do when other
// tenants load the host's caches.
var refParts = []struct{ slots, ops int }{
	{1 << 18, 1 << 13},
	{1 << 12, 1 << 15},
}

// refPeriod is how often the sampler runs the reference computation,
// and refNear the least number of its runs a time span is measured by.
const (
	refPeriod = 25 * time.Millisecond
	refNear   = 5
)

// refNominal is the reference computation's CPU time on the nominal
// host that setup_s is scaled to.
const refNominal = 500 * time.Microsecond

// sampler runs the reference computation every refPeriod on a thread of
// its own while the benchmark measures, and records each run's CPU time.
// The host's speed drifts as other tenants load its cores, caches and
// memory, in steps of tens of percent a few seconds apart; the runs
// during a unit measure the speed the unit ran at.
type sampler struct {
	tables     []refTable
	tid        int // the sampler's thread
	stop, done chan struct{}

	mu   sync.Mutex
	runs []refRun // in time order
	err  error
}

type refRun struct {
	end time.Time
	cpu time.Duration
}

// refTable is an open-addressing hash table of uint64 keys with a
// stream of keys to look up.
type refTable struct {
	keys, vals []uint64
	shift      uint   // a key's home slot is the top bits of its hash
	x          uint64 // the key stream's state
}

// newRefTable returns a table of slots slots, a power of two, holding
// every key from 1 to slots/2.
func newRefTable(slots int) refTable {
	t := refTable{keys: make([]uint64, slots), vals: make([]uint64, slots), x: 0x9e3779b97f4a7c15}
	for n := slots; n > 1; n >>= 1 {
		t.shift++
	}
	t.shift = 64 - t.shift
	for k := uint64(1); k <= uint64(slots/2); k++ {
		i := t.home(k)
		for t.keys[i] != 0 {
			i = (i + 1) & uint64(slots-1)
		}
		t.keys[i] = k
	}
	return t
}

func (t *refTable) home(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 >> t.shift }

// lookUp looks n keys of the stream up and returns how many it found,
// which is all of them.
func (t *refTable) lookUp(n int) int {
	mask, domain := uint64(len(t.keys)-1), uint64(len(t.keys)/2)
	x, hits := t.x, 0
	for ; n > 0; n-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x%domain + 1
		i := t.home(k)
		for t.keys[i] != k && t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		if t.keys[i] == k {
			t.vals[i]++
			hits++
		}
	}
	t.x = x
	return hits
}

// startSampler fills the reference tables and starts sampling.
func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	for _, p := range refParts {
		s.tables = append(s.tables, newRefTable(p.slots))
	}
	ready := make(chan int)
	go s.loop(ready)
	s.tid = <-ready
	return s
}

func (s *sampler) loop(ready chan<- int) {
	defer close(s.done)
	// The thread is never unlocked, so it runs nothing but the sampler
	// and exits with it.
	runtime.LockOSThread()
	ready <- syscall.Gettid()
	tick := time.NewTicker(refPeriod)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		d, err := s.reference()
		s.mu.Lock()
		s.runs = append(s.runs, refRun{time.Now(), d})
		s.err = err
		s.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// reference runs the reference computation once and returns its thread
// CPU time.
func (s *sampler) reference() (time.Duration, error) {
	start, err := threadCPU()
	if err != nil {
		return 0, err
	}
	for i, p := range refParts {
		if hits := s.tables[i].lookUp(p.ops); hits != p.ops {
			return 0, fmt.Errorf("reference computation: %d of %d keys found", hits, p.ops)
		}
	}
	end, err := threadCPU()
	return end - start, err
}

// close stops the sampler and returns the first error it met.
func (s *sampler) close() error {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// threadCPU returns the CPU time the sampler's thread has used so far.
func (s *sampler) threadCPU() (time.Duration, error) {
	return readClock((^s.tid)<<3 | 6) // the thread's scheduler-accounted clock
}

// all returns the CPU times, in seconds, of every run so far.
func (s *sampler) all() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.runs))
	for i, r := range s.runs {
		out[i] = r.cpu.Seconds()
	}
	return out
}

// during returns the median CPU time, in seconds, of the runs that ended
// from a to b, or of the refNear runs that ended nearest the middle of
// that span when fewer did.
func (s *sampler) during(a, b time.Time) float64 {
	s.mu.Lock()
	runs := append([]refRun(nil), s.runs...)
	s.mu.Unlock()
	var in []float64
	for _, r := range runs {
		if !r.end.Before(a) && !r.end.After(b) {
			in = append(in, r.cpu.Seconds())
		}
	}
	if len(in) >= refNear {
		return median(in)
	}
	mid := a.Add(b.Sub(a) / 2)
	dist := func(r refRun) time.Duration { return max(r.end.Sub(mid), mid.Sub(r.end)) }
	sort.Slice(runs, func(i, j int) bool { return dist(runs[i]) < dist(runs[j]) })
	in = in[:0]
	for _, r := range runs[:min(refNear, len(runs))] {
		in = append(in, r.cpu.Seconds())
	}
	return median(in)
}
