package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle of xs (mean of the two middles for even
// lengths), or NaN when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the average of xs (NaN when empty).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailMin is how many samples must lie beyond a percentile before it is
// reported.
const tailMin = 10

// percentile returns the q-quantile (nearest rank) of sorted ns, and false
// when fewer than tailMin samples lie beyond it (the median needs only one
// sample).
func percentile(sorted []int64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if q > 0.5 && n-1-rank < tailMin {
		return 0, false
	}
	return float64(sorted[rank]), true
}

// latencies collects one kind of operation's ack latencies over a stretch
// of ops, in nanoseconds.
type latencies []int64

func (l *latencies) add(d time.Duration) { *l = append(*l, int64(d)) }

// quantile computes the q-quantile over every sample the clients collected,
// in microseconds, with the sample count. ok is false when there are no
// samples, or fewer than tailMin beyond a tail percentile.
func quantile(ls []*latencies, q float64) (us float64, n int, ok bool) {
	var all []int64
	for _, l := range ls {
		all = append(all, *l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	v, ok := percentile(all, q)
	return v / 1e3, len(all), ok
}

// medianDur is the median of ds in microseconds (NaN when empty).
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	return median(xs)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// procSnap is the runtime's allocation and GC accounting at one instant.
type procSnap struct {
	mallocs, allocBytes uint64
	numGC               uint32
	pauses              [256]uint64
	gcCPU, totalCPU     float64
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := procSnap{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, numGC: ms.NumGC, pauses: ms.PauseNs}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	return s
}

// maxPauseSince is the longest stop-the-world pause between two snapshots,
// in microseconds (the runtime keeps the last 256).
func (s procSnap) maxPauseSince(before procSnap) float64 {
	var max uint64
	for gc := before.numGC; gc < s.numGC; gc++ {
		if s.numGC-gc > 256 {
			continue
		}
		if p := s.pauses[gc%256]; p > max {
			max = p
		}
	}
	return float64(max) / 1e3
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
