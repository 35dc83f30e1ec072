package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p90 needs at least 100 samples, a median at least 20.
const minBeyond = 10

// quantile returns the q-quantile of xs, interpolating linearly between the
// two closest ranks. It fails when fewer than minBeyond samples rank above
// the quantile's position, because such a percentile is set by a handful of
// outliers and does not repeat from run to run.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if beyond := n - 1 - lo; beyond < minBeyond {
		return median(xs), fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", 100*q, n, beyond, minBeyond)
	}
	return interpolate(sorted(xs), pos), nil
}

// median is the 0.5-quantile without the sample-count rule, for per-layer
// figures taken from a small replay sample. It is 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return interpolate(sorted(xs), 0.5*float64(len(xs)-1))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func interpolate(s []float64, pos float64) float64 {
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procSample is a snapshot of the counters a window's process metrics are
// deltas of.
type procSample struct {
	cpu     time.Duration
	mallocs uint64
	alloc   uint64
}

func sampleProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{cpu: cpuTime(), mallocs: m.Mallocs, alloc: m.TotalAlloc}
}

// liveHeapMB forces a collection and reports the heap still reachable.
// The second collection frees what sync.Pool victim caches kept alive
// through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
