package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count). It does not modify xs. An empty slice yields NaN so a lane
// that measured nothing cannot print a plausible number.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least p of the samples at or below it. p is in (0, 1].
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// medianOrZero is median for per-layer numbers of something that may not
// have happened at all in a run (a repartition mode, a cache tier).
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// kernelCalls is how often the traced run times a single-layer kernel.
const kernelCalls = 10

// timeCalls returns the wall of n calls of f, each after a collection.
func timeCalls(n int, f func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		runtime.GC()
		t0 := time.Now()
		f()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}

// heapCost is what one call of f allocates, by the runtime's own counters.
func heapCost(f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// Streams keep the seeds of different uses apart (subSeed's second argument).
const (
	streamPartition  = 1 + iota // partition lane: one seed per round
	streamDownstream            // downstream lane: one seed per domain count
	streamRepart                // repart lane: one seed per drift and epoch
	streamDrift                 // repart lane: one drift schedule per drift
	streamHot                   // serve lane: the hot set's keys
	streamSchedule              // serve lane: one request schedule per phase and caller
	streamMiss                  // serve lane: never-seen keys, per phase and caller
	streamKernel                // serve lane: keys of the traced single-path requests
)

// subSeed derives an independent seed for one use (a lane's i-th round, a
// caller's schedule) from the run's --seed, so neighbouring run seeds share
// no partition seeds and no schedules. It is a splitmix64 step over the three
// inputs; the result is non-negative and fits a JSON number exactly.
func subSeed(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9 + uint64(i)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 12) // 52 bits
}
