package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hostRecord describes the host at one instant, so that drift between
// runs (other tenants, CPU steal) shows in every run's output.
type hostRecord struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	StealTicks int64     `json:"steal_ticks"` // -1 when /proc/stat is unreadable
	LoadAvg    []float64 `json:"loadavg"`     // 1, 5 and 15 minutes
}

func readHost() hostRecord {
	h := hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StealTicks: -1,
	}
	// The aggregate "cpu" line of /proc/stat: user nice system idle
	// iowait irq softirq steal ...
	if stat, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(stat), "\n")
		if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
			if v, err := strconv.ParseInt(f[8], 10, 64); err == nil {
				h.StealTicks = v
			}
		}
	}
	if load, err := os.ReadFile("/proc/loadavg"); err == nil && len(strings.Fields(string(load))) >= 3 {
		for _, f := range strings.Fields(string(load))[:3] {
			if v, err := strconv.ParseFloat(f, 64); err == nil {
				h.LoadAvg = append(h.LoadAvg, v)
			}
		}
	}
	return h
}

// processCPU reads the CPU time, user and system, that a process has
// used so far, exited threads included. The kernel leaves out of it the
// time the hypervisor gave the vCPU to other guests (steal).
func processCPU(pid int) (time.Duration, error) {
	return readClock((^pid)<<3 | 2) // the process's scheduler-accounted clock
}

// threadCPU reads the CPU time the calling thread has used so far.
func threadCPU() (time.Duration, error) {
	return readClock(3) // CLOCK_THREAD_CPUTIME_ID
}

func readClock(clock int) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(%d): %w", clock, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process from
// /proc/<pid>/status, in MB.
func peakRSSMB(pid int) (float64, error) {
	status, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
