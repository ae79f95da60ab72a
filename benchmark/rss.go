package main

import (
	"os"
	"strconv"
	"sync"
	"time"
)

// rssWindows records a process's peak RSS over consecutive windows: the
// kernel's high-water mark is read and reset once per window, so that
// one burst does not set a whole run's figure.
type rssWindows struct {
	pid   int
	stop  chan struct{}
	once  sync.Once
	done  chan struct{}
	peaks []float64 // written by the sampling goroutine until done is closed
}

func sampleRSS(pid int, window time.Duration) *rssWindows {
	w := &rssWindows{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go w.run(window)
	return w
}

func (w *rssWindows) run(window time.Duration) {
	defer close(w.done)
	reset := func() error {
		// Writing 5 to clear_refs resets VmHWM to the current RSS.
		return os.WriteFile("/proc/"+strconv.Itoa(w.pid)+"/clear_refs", []byte("5"), 0)
	}
	if reset() != nil {
		return // median falls back to the lifetime peak
	}
	tick := time.NewTicker(window)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			if mb, err := peakRSSMB(w.pid); err == nil {
				w.peaks = append(w.peaks, mb)
			}
			reset()
		}
	}
}

// median stops the sampling and returns the median of the completed
// windows' peaks, or the process's lifetime peak when none completed.
// The process must still be running.
func (w *rssWindows) median() (float64, error) {
	w.once.Do(func() { close(w.stop) })
	<-w.done
	if len(w.peaks) == 0 {
		return peakRSSMB(w.pid)
	}
	return median(w.peaks), nil
}
