package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is the process-wide resource counters a timed window is
// charged with, plus the machine's CPU ticks and how many of them the
// hypervisor stole.
type usage struct {
	cpu      time.Duration // user + system CPU
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
	ticks    uint64
	steal    uint64
}

// cpuTicks reads the machine-wide CPU tick counters from /proc/stat:
// all ticks, and the ticks stolen by the hypervisor. Both are zero
// where the file is unavailable.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ticks, steal := cpuTicks()
	return usage{
		ticks:    ticks,
		steal:    steal,
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
	}
}

func (u usage) sub(before usage) usage {
	return usage{
		cpu:      u.cpu - before.cpu,
		mallocs:  u.mallocs - before.mallocs,
		bytes:    u.bytes - before.bytes,
		gcCycles: u.gcCycles - before.gcCycles,
		gcPause:  u.gcPause - before.gcPause,
		ticks:    u.ticks - before.ticks,
		steal:    u.steal - before.steal,
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100)
// of samples, sorting them in place; zero for no samples.
func percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(p/100*float64(len(samples)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// median of float samples (sorted in place); zero for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// settleGoroutines waits up to timeout for the goroutine count to fall
// to base and returns how many goroutines remain above it.
func settleGoroutines(base int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		extra := runtime.NumGoroutine() - base
		if extra <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return extra
		}
		time.Sleep(10 * time.Millisecond)
	}
}
