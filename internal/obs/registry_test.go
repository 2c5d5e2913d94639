package obs

import (
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if err := CheckExposition(sb.String()); err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, sb.String())
	}
	return sb.String()
}

// TestRegistryExposition pins the writer: families in registration order,
// series in label-value tuple order (so "n1" precedes "n10"), no header for
// a labelled family without series, the unlabelled zero, %d and %g values,
// and label values escaped for exactly backslash, quote and line feed and
// never split on any separator.
func TestRegistryExposition(t *testing.T) {
	var r Registry
	fwd := NewCounter[int64](&r, "fwd_total", "Forwards.", "peer", "outcome")
	NewCounter[int64](&r, "empty_total", "Never incremented.", "peer")
	zero := NewCounter[int64](&r, "zero_total", "Unlabelled.")
	secs := NewCounter[float64](&r, "secs_total", "Seconds.", "phase")
	fwd.Inc("n10", "relayed")
	fwd.Inc("n1", "relayed")
	fwd.Add(2, "n1", "error")
	fwd.Inc("a|b", "x")
	fwd.Inc("a", "b|x")
	fwd.Inc("q\"\\\n\tz", "ok")
	secs.Add(0.25, "p")
	secs.Add(1e-7, "p")
	secs.Add(2e6, "big")

	want := `# HELP fwd_total Forwards.
# TYPE fwd_total counter
fwd_total{peer="a",outcome="b|x"} 1
fwd_total{peer="a|b",outcome="x"} 1
fwd_total{peer="n1",outcome="error"} 2
fwd_total{peer="n1",outcome="relayed"} 1
fwd_total{peer="n10",outcome="relayed"} 1
fwd_total{peer="q\"\\\n` + "\t" + `z",outcome="ok"} 1
# HELP zero_total Unlabelled.
# TYPE zero_total counter
zero_total 0
# HELP secs_total Seconds.
# TYPE secs_total counter
secs_total{phase="big"} 2e+06
secs_total{phase="p"} 0.2500001
`
	if got := render(t, &r); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
	if got := fwd.Value("n1", "error"); got != 2 {
		t.Errorf("Value(n1, error) = %d, want 2", got)
	}
	if got := fwd.Value("n1|error"); got != 0 {
		t.Errorf("Value of a joined key = %d, want 0", got)
	}
	if zero.Inc(); zero.Value() != 1 {
		t.Errorf("unlabelled Value = %d, want 1", zero.Value())
	}
}

func TestRegistryHistogram(t *testing.T) {
	var r Registry
	h := NewHistogram(&r, "lat_seconds", "Latency.", []float64{0.1, 1}, "op")
	plain := NewHistogram(&r, "size_bytes", "Size.", []float64{1024})
	for _, v := range []float64{0.05, 0.1, 0.5, 7} { // 0.1 sits on its bound; 7 is past the last
		h.Observe(v, "get")
	}
	want := `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{op="get",le="0.1"} 2
lat_seconds_bucket{op="get",le="1"} 3
lat_seconds_bucket{op="get",le="+Inf"} 4
lat_seconds_sum{op="get"} 7.65
lat_seconds_count{op="get"} 4
# HELP size_bytes Size.
# TYPE size_bytes histogram
size_bytes_bucket{le="1024"} 0
size_bytes_bucket{le="+Inf"} 0
size_bytes_sum 0
size_bytes_count 0
`
	if got := render(t, &r); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
	plain.Observe(2048)
	if got := render(t, &r); !strings.Contains(got, "size_bytes_bucket{le=\"+Inf\"} 1\nsize_bytes_sum 2048\n") {
		t.Errorf("unlabelled observation missing in:\n%s", got)
	}
}

// TestRegistryFuncAndInclude covers render-time families — one that reads
// another family's counters while the registry is being written, as the
// ratio gauges do, and one that emits nothing — and an included registry
// rendering in its registration slot, families added to it later included.
func TestRegistryFuncAndInclude(t *testing.T) {
	var r, sub Registry
	hits := NewCounter[int64](&r, "hits_total", "Hits.")
	NewFunc(&r, "hit_ratio", "Ratio.", "gauge", nil, func(emit func(float64, ...string)) {
		if v := hits.Value(); v > 0 {
			emit(float64(v) / 4)
		}
	})
	r.Include(&sub)
	NewFunc(&r, "state", "State per peer.", "gauge", []string{"peer"}, func(emit func(int64, ...string)) {
		emit(2, "n2")
		emit(0, "n1")
	})
	NewCounter[int64](&sub, "sub_total", "Included.")

	want := "# HELP hits_total Hits.\n# TYPE hits_total counter\nhits_total 0\n" +
		"# HELP sub_total Included.\n# TYPE sub_total counter\nsub_total 0\n" +
		"# HELP state State per peer.\n# TYPE state gauge\nstate{peer=\"n2\"} 2\nstate{peer=\"n1\"} 0\n"
	if got := render(t, &r); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
	hits.Inc()
	if got := render(t, &r); !strings.Contains(got, "# TYPE hit_ratio gauge\nhit_ratio 0.25\n") {
		t.Errorf("ratio gauge missing in:\n%s", got)
	}
}

// TestRegistryConcurrent updates and writes from several goroutines; the
// race detector watches, and the totals must come out exact.
func TestRegistryConcurrent(t *testing.T) {
	var r Registry
	c := NewCounter[int64](&r, "c_total", "C.", "k")
	h := NewHistogram(&r, "h_seconds", "H.", []float64{1})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc([]string{"a", "b", "c"}[i%3])
				h.Observe(0.5)
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.Write(&sb); err != nil {
						t.Error(err)
					} else if err := CheckExposition(sb.String()); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if a, b := c.Value("a"), c.Value("b"); a != 668 || b != 668 {
		t.Errorf("counts a=%d b=%d, want 668 each", a, b)
	}
	if !strings.Contains(render(t, &r), "h_seconds_count 2000\n") {
		t.Error("histogram count lost updates")
	}
}

// TestCounterIncAllocs pins the hot path: bumping an existing series
// allocates nothing.
func TestCounterIncAllocs(t *testing.T) {
	var r Registry
	c := NewCounter[int64](&r, "c_total", "C.", "endpoint", "method", "code")
	h := NewHistogram(&r, "h_seconds", "H.", []float64{0.1, 1}, "endpoint")
	c.Inc("/v1/partition", "POST", "200")
	h.Observe(0.5, "/v1/partition")
	if n := testing.AllocsPerRun(100, func() {
		c.Inc("/v1/partition", "POST", "200")
		h.Observe(0.5, "/v1/partition")
	}); n != 0 {
		t.Errorf("Inc + Observe on existing series: %v allocs, want 0", n)
	}
}

func TestRuntimeMetrics(t *testing.T) {
	var r Registry
	RegisterRuntimeMetrics(&r)
	got := render(t, &r)
	for _, want := range []string{
		"# TYPE tempartd_runtime_heap_bytes gauge\n",
		"# TYPE tempartd_runtime_gc_cycles_total counter\n",
		"tempartd_runtime_sched_latency_seconds_bucket{le=\"1e-06\"} ",
		"tempartd_runtime_gc_pause_seconds_bucket{le=\"+Inf\"} ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}
