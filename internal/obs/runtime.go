package obs

import (
	"runtime/metrics"
	"slices"
)

// runtimeBuckets are the fixed upper bounds (seconds) the runtime's
// variable-bucket latency histograms are downsampled to: GC pauses and
// scheduler latencies both live between microseconds and (pathologically)
// seconds. Fixed bounds keep the exposition stable across Go versions —
// runtime/metrics makes no promise about its own bucket layout.
var runtimeBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// RegisterRuntimeMetrics registers the tempartd_runtime_* families on r:
// live heap and total runtime-mapped memory, goroutine count, GC cycle
// counter, and the GC-pause and scheduler-latency distributions
// downsampled onto fixed cumulative buckets. Each family reads its
// runtime/metrics sample when r is written — no stop-the-world, a few
// microseconds — and writes nothing when the running runtime lacks it.
//
// The runtime reports its histograms without a sum, so the _sum series is
// reconstructed from bucket midpoints — exact enough for rate() and
// histogram_quantile(), and documented as approximate in HELP.
func RegisterRuntimeMetrics(r *Registry) {
	uint := func(metric, help, typ, name string) {
		NewFunc(r, metric, help, typ, nil, func(emit func(int64, ...string)) {
			if v := readRuntime(name); v.Kind() == metrics.KindUint64 {
				emit(int64(v.Uint64()))
			}
		})
	}
	uint("tempartd_runtime_heap_bytes", "Bytes occupied by live heap objects (runtime /memory/classes/heap/objects).", "gauge", "/memory/classes/heap/objects:bytes")
	uint("tempartd_runtime_memory_total_bytes", "All memory mapped by the Go runtime (heap, stacks, runtime structures).", "gauge", "/memory/classes/total:bytes")
	uint("tempartd_runtime_goroutines", "Live goroutines.", "gauge", "/sched/goroutines:goroutines")
	uint("tempartd_runtime_gc_cycles_total", "Completed GC cycles since process start.", "counter", "/gc/cycles/total:gc-cycles")
	r.add(&runtimeHist{desc{"tempartd_runtime_gc_pause_seconds",
		"Distribution of GC stop-the-world pause latencies (sum approximated from bucket midpoints).", "histogram", nil},
		"/gc/pauses:seconds"})
	r.add(&runtimeHist{desc{"tempartd_runtime_sched_latency_seconds",
		"Distribution of time goroutines spent runnable before running (sum approximated from bucket midpoints).", "histogram", nil},
		"/sched/latencies:seconds"})
}

func readRuntime(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

var runtimeLes = leLabels(runtimeBuckets)

// runtimeHist is a runtime Float64Histogram downsampled onto the fixed
// runtimeBuckets when written. A runtime bucket [lo, hi) counts toward the
// first fixed bound ≥ hi; buckets past the last bound land in +Inf.
type runtimeHist struct {
	desc
	sample string
}

func (rh *runtimeHist) write(b []byte) []byte {
	v := readRuntime(rh.sample)
	if v.Kind() != metrics.KindFloat64Histogram {
		return b
	}
	h := v.Float64Histogram()
	counts := make([]int64, len(runtimeBuckets)+1)
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		// Midpoint for the sum approximation; unbounded edges collapse to
		// the finite one.
		mid := (lo + hi) / 2
		switch {
		case lo < 0 || lo != lo: // -Inf or NaN edge
			mid = hi
		case hi != hi || hi > 1e300: // +Inf edge
			mid = lo
		}
		sum += mid * float64(c)
		j, _ := slices.BinarySearch(runtimeBuckets, hi)
		counts[j] += int64(c)
	}
	return writeHist(rh.header(b), &rh.desc, "", runtimeLes, counts, sum)
}
