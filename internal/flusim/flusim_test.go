package flusim

import (
	"context"
	"testing"
	"testing/quick"

	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/taskgraph"
	"tempart/internal/temporal"
)

// buildTG builds a task graph for a strip mesh with the given levels/domains.
func buildTG(t *testing.T, levels []temporal.Level, part []int32, k int) *taskgraph.TaskGraph {
	t.Helper()
	m := mesh.Strip(levels)
	tg, err := taskgraph.Build(m, part, k, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestSimulateSerialChain(t *testing.T) {
	// Single domain, one proc, one worker: makespan = total work.
	tg := buildTG(t, []temporal.Level{0, 0, 0, 0}, []int32{0, 0, 0, 0}, 1)
	res, err := Simulate(tg, []int32{0}, Config{
		Cluster: Cluster{NumProcs: 1, WorkersPerProc: 1}, RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != res.TotalWork {
		t.Errorf("Makespan = %d, want TotalWork %d on 1 worker", res.Makespan, res.TotalWork)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.CheckNoWorkerOverlap(); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateRespectsLowerBounds(t *testing.T) {
	m := mesh.Cylinder(0.0005)
	r, err := partition.PartitionMesh(context.Background(), m, 4, partition.SCOC, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.Build(m, r.Part, 4, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tg, BlockMap(4, 2), Config{
		Cluster: Cluster{NumProcs: 2, WorkersPerProc: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < res.CriticalPath {
		t.Errorf("Makespan %d < critical path %d", res.Makespan, res.CriticalPath)
	}
	lb := res.TotalWork / int64(2*4)
	if res.Makespan < lb {
		t.Errorf("Makespan %d < work bound %d", res.Makespan, lb)
	}
}

func TestUnboundedEqualsCriticalPathOneProc(t *testing.T) {
	// With 1 process and unlimited cores and eager dispatch, the makespan is
	// exactly the DAG's critical path.
	m := mesh.Cube(0.02)
	part := make([]int32, m.NumCells())
	tg, err := taskgraph.Build(m, part, 1, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tg, []int32{0}, Config{
		Cluster: Cluster{NumProcs: 1, WorkersPerProc: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != res.CriticalPath {
		t.Errorf("unbounded 1-proc makespan %d != critical path %d", res.Makespan, res.CriticalPath)
	}
}

func TestUnboundedCoresStillIdle(t *testing.T) {
	// The paper's Figure 6 argument: with SC_OC-style segregated domains and
	// unbounded cores, processes still idle because of the graph's shape.
	levels := make([]temporal.Level, 64)
	for i := range levels {
		if i < 16 {
			levels[i] = 0
		} else {
			levels[i] = 2
		}
	}
	part := make([]int32, 64)
	for i := range part {
		part[i] = int32(i / 32) // domain 0: all τ0+some τ2; domain 1: all τ2
	}
	tg := buildTG(t, levels, part, 2)
	res, err := Simulate(tg, BlockMap(2, 2), Config{
		Cluster: Cluster{NumProcs: 2, WorkersPerProc: 0}, RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Proc 1 (only τ2 cells) is active only in subiteration 0; it must be
	// idle for part of the execution while proc 0 finishes subs 1..3.
	iv := res.Trace.ProcActiveIntervals()
	var active1 int64
	for _, x := range iv[1] {
		active1 += x[1] - x[0]
	}
	if active1 >= res.Makespan {
		t.Errorf("segregated proc has no idle window: active %d of %d", active1, res.Makespan)
	}
}

func TestEagerOptimalWhenUnbounded(t *testing.T) {
	// With unbounded cores, no strategy can beat eager.
	m := mesh.Cylinder(0.0005)
	r, err := partition.PartitionMesh(context.Background(), m, 8, partition.SCOC, partition.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.Build(m, r.Part, 8, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pm := BlockMap(8, 4)
	base, err := Simulate(tg, pm, Config{Cluster: Cluster{NumProcs: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{LIFO, CriticalPathFirst, RandomOrder} {
		res, err := Simulate(tg, pm, Config{Cluster: Cluster{NumProcs: 4}, Strategy: s, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan < base.Makespan {
			t.Errorf("%v beat eager with unbounded cores: %d < %d", s, res.Makespan, base.Makespan)
		}
	}
}

func TestStrategiesAllComplete(t *testing.T) {
	m := mesh.Cube(0.05)
	r, err := partition.PartitionMesh(context.Background(), m, 6, partition.MCTL, partition.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.Build(m, r.Part, 6, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pm := BlockMap(6, 3)
	for _, s := range []Strategy{Eager, LIFO, CriticalPathFirst, RandomOrder} {
		res, err := Simulate(tg, pm, Config{
			Cluster: Cluster{NumProcs: 3, WorkersPerProc: 2}, Strategy: s, Seed: 11, RecordTrace: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(res.Trace.Spans) != tg.NumTasks() {
			t.Errorf("%v: %d spans for %d tasks", s, len(res.Trace.Spans), tg.NumTasks())
		}
		if err := res.Trace.CheckNoWorkerOverlap(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}

func TestBusyConservation(t *testing.T) {
	// Busy time summed over procs equals total work, for any worker count.
	m := mesh.Cylinder(0.0005)
	r, err := partition.PartitionMesh(context.Background(), m, 4, partition.MCTL, partition.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.Build(m, r.Part, 4, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 0} {
		res, err := Simulate(tg, BlockMap(4, 2), Config{
			Cluster: Cluster{NumProcs: 2, WorkersPerProc: w},
		})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, b := range res.BusyPerProc {
			sum += b
		}
		if sum != res.TotalWork {
			t.Errorf("workers=%d: busy sum %d != total work %d", w, sum, res.TotalWork)
		}
	}
}

func TestMoreWorkersNeverSlower(t *testing.T) {
	// Eager FIFO is not theoretically monotone, but on these graphs doubling
	// workers should never slow things down; treat regressions as bugs.
	m := mesh.Cube(0.05)
	r, err := partition.PartitionMesh(context.Background(), m, 8, partition.SCOC, partition.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.Build(m, r.Part, 8, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pm := BlockMap(8, 4)
	prev := int64(1 << 62)
	for _, w := range []int{1, 2, 4, 8} {
		res, err := Simulate(tg, pm, Config{Cluster: Cluster{NumProcs: 4, WorkersPerProc: w}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan > prev {
			t.Errorf("workers=%d makespan %d worse than fewer workers %d", w, res.Makespan, prev)
		}
		prev = res.Makespan
	}
}

func TestBlockMap(t *testing.T) {
	bm := BlockMap(8, 4)
	want := []int32{0, 0, 1, 1, 2, 2, 3, 3}
	for i := range want {
		if bm[i] != want[i] {
			t.Fatalf("BlockMap = %v, want %v", bm, want)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	tg := buildTG(t, []temporal.Level{0, 0}, []int32{0, 0}, 1)
	if _, err := Simulate(tg, []int32{0}, Config{Cluster: Cluster{NumProcs: 0}}); err == nil {
		t.Error("accepted zero processes")
	}
	if _, err := Simulate(tg, []int32{}, Config{Cluster: Cluster{NumProcs: 1}}); err == nil {
		t.Error("accepted missing domain map")
	}
	if _, err := Simulate(tg, []int32{5}, Config{Cluster: Cluster{NumProcs: 1}}); err == nil {
		t.Error("accepted out-of-range domain map")
	}
	if _, err := Simulate(tg, []int32{0}, Config{Cluster: Cluster{NumProcs: 1, WorkersPerProc: -1}}); err == nil {
		t.Error("accepted negative workers per process")
	}
	if _, err := Simulate(tg, []int32{0}, Config{Cluster: Cluster{NumProcs: 1}, CommLatency: -1000}); err == nil {
		t.Error("accepted negative communication latency")
	}
}

func TestStrategyStringRoundTrip(t *testing.T) {
	for _, s := range []Strategy{Eager, LIFO, CriticalPathFirst, RandomOrder} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: %v %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("x"); err == nil {
		t.Error("ParseStrategy accepted junk")
	}
}

// Property: determinism — same config, same makespan and span count.
func TestSimulateDeterministicProperty(t *testing.T) {
	f := func(seed int64, workers uint8) bool {
		m := mesh.Cube(0.02)
		r, err := partition.PartitionMesh(context.Background(), m, 4, partition.MCTL, partition.Options{Seed: seed})
		if err != nil {
			return false
		}
		tg, err := taskgraph.Build(m, r.Part, 4, taskgraph.Options{})
		if err != nil {
			return false
		}
		cfg := Config{
			Cluster: Cluster{NumProcs: 2, WorkersPerProc: 1 + int(workers%4)},
			Seed:    seed, Strategy: RandomOrder,
		}
		a, err1 := Simulate(tg, BlockMap(4, 2), cfg)
		b, err2 := Simulate(tg, BlockMap(4, 2), cfg)
		return err1 == nil && err2 == nil && a.Makespan == b.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestMCTLSpeedupOnSim is the headline result in miniature: on the CYLINDER
// mesh, FLUSIM should show MC_TL beating SC_OC by a wide margin.
func TestMCTLSpeedupOnSim(t *testing.T) {
	m := mesh.Cylinder(0.002)
	k, procs, workers := 16, 4, 8
	makespan := func(strat partition.Strategy) int64 {
		r, err := partition.PartitionMesh(context.Background(), m, k, strat, partition.Options{Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		tg, err := taskgraph.Build(m, r.Part, k, taskgraph.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(tg, BlockMap(k, procs), Config{
			Cluster: Cluster{NumProcs: procs, WorkersPerProc: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	sc := makespan(partition.SCOC)
	mc := makespan(partition.MCTL)
	if mc >= sc {
		t.Errorf("MC_TL makespan %d not better than SC_OC %d", mc, sc)
	}
	t.Logf("FLUSIM makespans: SC_OC=%d MC_TL=%d ratio=%.2f", sc, mc, float64(sc)/float64(mc))
}

func TestCommLatencyZeroMatchesBaseline(t *testing.T) {
	m := mesh.Cube(0.05)
	r, err := partition.PartitionMesh(context.Background(), m, 8, partition.MCTL, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.Build(m, r.Part, 8, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pm := BlockMap(8, 4)
	base, err := Simulate(tg, pm, Config{Cluster: Cluster{NumProcs: 4, WorkersPerProc: 2}})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Simulate(tg, pm, Config{Cluster: Cluster{NumProcs: 4, WorkersPerProc: 2}, CommLatency: 0})
	if err != nil {
		t.Fatal(err)
	}
	if base.Makespan != zero.Makespan {
		t.Errorf("zero latency changed makespan: %d vs %d", base.Makespan, zero.Makespan)
	}
}

func TestCommLatencyMonotone(t *testing.T) {
	m := mesh.Cube(0.05)
	r, err := partition.PartitionMesh(context.Background(), m, 8, partition.MCTL, partition.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.Build(m, r.Part, 8, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pm := BlockMap(8, 4)
	prev := int64(-1)
	for _, lat := range []int64{0, 50, 500, 5000} {
		res, err := Simulate(tg, pm, Config{
			Cluster: Cluster{NumProcs: 4, WorkersPerProc: 2}, CommLatency: lat,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan < prev {
			t.Errorf("latency %d decreased makespan: %d < %d", lat, res.Makespan, prev)
		}
		prev = res.Makespan
		// All tasks still complete.
		var busy int64
		for _, b := range res.BusyPerProc {
			busy += b
		}
		if busy != res.TotalWork {
			t.Errorf("latency %d lost work: busy %d != total %d", lat, busy, res.TotalWork)
		}
	}
}

func TestCommLatencySingleProcUnaffected(t *testing.T) {
	// All domains on one process: no cross edges, latency is irrelevant.
	m := mesh.Cube(0.02)
	r, err := partition.PartitionMesh(context.Background(), m, 4, partition.SCOC, partition.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.Build(m, r.Part, 4, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pm := []int32{0, 0, 0, 0}
	a, _ := Simulate(tg, pm, Config{Cluster: Cluster{NumProcs: 1, WorkersPerProc: 2}})
	b, _ := Simulate(tg, pm, Config{Cluster: Cluster{NumProcs: 1, WorkersPerProc: 2}, CommLatency: 10000})
	if a.Makespan != b.Makespan {
		t.Errorf("latency affected single-process run: %d vs %d", a.Makespan, b.Makespan)
	}
}
