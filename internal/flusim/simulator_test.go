package flusim

import (
	"sync"
	"testing"

	"tempart/internal/mesh"
	"tempart/internal/taskgraph"
)

func simTestGraph(t testing.TB) *taskgraph.TaskGraph {
	t.Helper()
	m := mesh.Cylinder(0.002)
	part := make([]int32, m.NumCells())
	for i := range part {
		part[i] = int32(i % 16)
	}
	tg, err := taskgraph.Build(m, part, 16, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// TestSimulatorMatchesSimulate pins the reusable-Simulator path against the
// one-shot wrapper for every strategy, with and without comm latency.
func TestSimulatorMatchesSimulate(t *testing.T) {
	tg := simTestGraph(t)
	procOf := BlockMap(16, 4)
	sim := NewSimulator()
	var res Result
	for _, lat := range []int64{0, 7} {
		for _, s := range []Strategy{Eager, LIFO, CriticalPathFirst, RandomOrder} {
			cfg := Config{
				Cluster:  Cluster{NumProcs: 4, WorkersPerProc: 3},
				Strategy: s, Seed: 42, RecordTrace: true, CommLatency: lat,
			}
			want, err := Simulate(tg, procOf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.SimulateInto(&res, tg, procOf, cfg); err != nil {
				t.Fatal(err)
			}
			if res.Makespan != want.Makespan {
				t.Fatalf("%v lat=%d: SimulateInto makespan %d, Simulate %d",
					s, lat, res.Makespan, want.Makespan)
			}
			if len(res.Trace.Spans) != len(want.Trace.Spans) {
				t.Fatalf("%v lat=%d: %d spans, want %d", s, lat, len(res.Trace.Spans), len(want.Trace.Spans))
			}
			for i := range want.Trace.Spans {
				if res.Trace.Spans[i] != want.Trace.Spans[i] {
					t.Fatalf("%v lat=%d: span %d = %+v, want %+v",
						s, lat, i, res.Trace.Spans[i], want.Trace.Spans[i])
				}
			}
			for p := range want.BusyPerProc {
				if res.BusyPerProc[p] != want.BusyPerProc[p] {
					t.Fatalf("%v lat=%d: busy[%d] = %d, want %d",
						s, lat, p, res.BusyPerProc[p], want.BusyPerProc[p])
				}
			}
		}
	}
}

// TestSimulatorReuseAllocationFree is the acceptance-criterion assertion:
// once warmed, repeated SimulateInto calls perform zero allocations.
func TestSimulatorReuseAllocationFree(t *testing.T) {
	tg := simTestGraph(t)
	procOf := BlockMap(16, 4)
	for _, s := range []Strategy{Eager, LIFO, CriticalPathFirst, RandomOrder} {
		sim := NewSimulator()
		var res Result
		cfg := Config{Cluster: Cluster{NumProcs: 4, WorkersPerProc: 3}, Strategy: s, Seed: 9}
		if err := sim.SimulateInto(&res, tg, procOf, cfg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := sim.SimulateInto(&res, tg, procOf, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("strategy %v: %.1f allocs per warmed SimulateInto, want 0", s, allocs)
		}
	}
}

// TestRandomOrderConcurrentReproducible runs many concurrent RandomOrder
// simulations over one shared graph: each must reproduce the single-threaded
// makespan for its seed (race-free per-Simulator rngs; run under -race).
func TestRandomOrderConcurrentReproducible(t *testing.T) {
	tg := simTestGraph(t)
	procOf := BlockMap(16, 4)
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	want := make([]int64, len(seeds))
	for i, seed := range seeds {
		res, err := Simulate(tg, procOf, Config{
			Cluster: Cluster{NumProcs: 4, WorkersPerProc: 2}, Strategy: RandomOrder, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Makespan
	}
	var wg sync.WaitGroup
	got := make([]int64, len(seeds))
	errs := make([]error, len(seeds))
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			res, err := NewSimulator().Simulate(tg, procOf, Config{
				Cluster: Cluster{NumProcs: 4, WorkersPerProc: 2}, Strategy: RandomOrder, Seed: seed,
			})
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Makespan
		}(i, seed)
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("seed %d: concurrent makespan %d, single-threaded %d", seeds[i], got[i], want[i])
		}
	}
}

// TestTraceToggleReuse checks that a Simulator/Result pair can alternate
// between traced and untraced runs without leaking stale spans.
func TestTraceToggleReuse(t *testing.T) {
	tg := simTestGraph(t)
	procOf := BlockMap(16, 4)
	sim := NewSimulator()
	var res Result
	cfg := Config{Cluster: Cluster{NumProcs: 4, WorkersPerProc: 2}, RecordTrace: true}
	if err := sim.SimulateInto(&res, tg, procOf, cfg); err != nil {
		t.Fatal(err)
	}
	spans := len(res.Trace.Spans)
	if spans != tg.NumTasks() {
		t.Fatalf("traced run recorded %d spans, want %d", spans, tg.NumTasks())
	}
	cfg.RecordTrace = false
	if err := sim.SimulateInto(&res, tg, procOf, cfg); err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("untraced run left res.Trace non-nil")
	}
	cfg.RecordTrace = true
	if err := sim.SimulateInto(&res, tg, procOf, cfg); err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Spans) != spans {
		t.Fatalf("re-traced run recorded %d spans, want %d", len(res.Trace.Spans), spans)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}
