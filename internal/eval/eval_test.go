package eval

import (
	"context"
	"testing"

	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/metrics"
	"tempart/internal/partition"
	"tempart/internal/taskgraph"
)

func testSpec(t *testing.T) (Spec, *mesh.Mesh, []int32) {
	t.Helper()
	m := mesh.Cylinder(0.002)
	res, err := partition.PartitionMesh(context.Background(), m, 16, partition.MCTL,
		partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Mesh: m, Part: res.Part, NumDomains: 16,
		ProcOf: flusim.BlockMap(16, 4),
		Sim:    flusim.Config{Cluster: flusim.Cluster{NumProcs: 4, WorkersPerProc: 4}},
	}
	return spec, m, res.Part
}

// TestEvaluateMatchesDirectPipeline pins the facade against the underlying
// Build+Simulate pipeline on every reported number.
func TestEvaluateMatchesDirectPipeline(t *testing.T) {
	spec, m, part := testSpec(t)
	e := New(Options{Parallelism: 1})
	out, err := e.Evaluate(spec)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := taskgraph.Build(m, part, 16, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := flusim.Simulate(tg, spec.ProcOf, spec.Sim)
	if err != nil {
		t.Fatal(err)
	}
	if out.Makespan != res.Makespan {
		t.Errorf("makespan %d, direct pipeline %d", out.Makespan, res.Makespan)
	}
	if out.CriticalPath != res.CriticalPath || out.TotalWork != res.TotalWork {
		t.Errorf("bounds (%d, %d), direct (%d, %d)",
			out.CriticalPath, out.TotalWork, res.CriticalPath, res.TotalWork)
	}
	if want := metrics.CommVolume(tg, spec.ProcOf); out.CommVolume != want {
		t.Errorf("comm volume %d, want %d", out.CommVolume, want)
	}
	if out.NumTasks != tg.NumTasks() || out.NumDeps != tg.NumDeps() {
		t.Errorf("size (%d, %d), want (%d, %d)", out.NumTasks, out.NumDeps, tg.NumTasks(), tg.NumDeps())
	}
	if out.GraphCached {
		t.Error("first evaluation reported a cached graph")
	}
	if out.BuildSeconds <= 0 {
		t.Error("first evaluation reported no build time")
	}
	wantEff := float64(res.TotalWork) / (float64(res.Makespan) * 16)
	if out.Efficiency != wantEff {
		t.Errorf("efficiency %g, want %g", out.Efficiency, wantEff)
	}
}

// TestGraphCacheHit asserts the second evaluation of the same decomposition
// reuses the cached graph, and that changing the partition or the levels
// misses.
func TestGraphCacheHit(t *testing.T) {
	spec, m, part := testSpec(t)
	e := New(Options{Parallelism: 1})
	if _, err := e.Evaluate(spec); err != nil {
		t.Fatal(err)
	}
	out, err := e.Evaluate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !out.GraphCached {
		t.Error("second evaluation rebuilt the graph")
	}
	if out.BuildSeconds != 0 {
		t.Error("cached evaluation reported build time")
	}

	// Different strategy, same graph.
	spec2 := spec
	spec2.Sim.Strategy = flusim.LIFO
	out2, err := e.Evaluate(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.GraphCached {
		t.Error("strategy variant rebuilt the graph")
	}

	// Different partition: miss.
	part2 := append([]int32(nil), part...)
	part2[0] = (part2[0] + 1) % 16
	spec3 := spec
	spec3.Part = part2
	out3, err := e.Evaluate(spec3)
	if err != nil {
		t.Fatal(err)
	}
	if out3.GraphCached {
		t.Error("changed partition hit the cache")
	}

	// In-place level mutation (the ReassignLevels pattern): miss.
	counts := m.Census()
	m.ReassignLevels(func(x, y, z float64) float64 { return x + y + z }, counts)
	out4, err := e.Evaluate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if out4.GraphCached {
		t.Error("mutated levels hit the cache")
	}
}

// TestGraphKeyMisses changes one input of the built DAG at a time: each
// change must miss the cache, and the unchanged spec must still hit.
func TestGraphKeyMisses(t *testing.T) {
	spec, m, part := testSpec(t)
	spec.MeshID = "gen:CYLINDER:0.002"
	e := New(Options{Parallelism: 1, GraphCacheSize: 16})
	if _, err := e.Evaluate(spec); err != nil {
		t.Fatal(err)
	}
	// Each case edits a copy of spec and returns an undo for shared state.
	cases := []struct {
		name string
		edit func(sp *Spec) (undo func())
	}{
		{"NumDomains", func(sp *Spec) func() {
			sp.NumDomains = 17
			sp.ProcOf = flusim.BlockMap(17, 4)
			return func() {}
		}},
		{"Iterations", func(sp *Spec) func() { sp.Iterations = 2; return func() {} }},
		{"FaceCost", func(sp *Spec) func() { sp.FaceCost = 2; return func() {} }},
		{"CellCost", func(sp *Spec) func() { sp.CellCost = 2; return func() {} }},
		{"MeshID", func(sp *Spec) func() { sp.MeshID += "/other"; return func() {} }},
		{"Level", func(sp *Spec) func() {
			old := m.Level[0]
			m.Level[0] = (old + 1) % (m.MaxLevel + 1)
			return func() { m.Level[0] = old }
		}},
		{"Part", func(sp *Spec) func() {
			p := append([]int32(nil), part...)
			p[len(p)-1] = (p[len(p)-1] + 1) % 16
			sp.Part = p
			return func() {}
		}},
	}
	for _, c := range cases {
		sp := spec
		undo := c.edit(&sp)
		out, err := e.Evaluate(sp)
		undo()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out.GraphCached {
			t.Errorf("changing %s hit the cache", c.name)
		}
	}
	out, err := e.Evaluate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !out.GraphCached {
		t.Error("the unchanged spec missed the cache")
	}
}

// BenchmarkGraphKey measures the cache key every evaluation computes, warm
// ones included, on PPRIME_NOZZLE at scale 0.005 (62 748 cells).
func BenchmarkGraphKey(b *testing.B) {
	m := mesh.Nozzle(0.005)
	part := make([]int32, m.NumCells())
	for i := range part {
		part[i] = int32(i % 12)
	}
	spec := &Spec{Mesh: m, MeshID: "gen:PPRIME_NOZZLE:0.005", Part: part, NumDomains: 12}
	b.SetBytes(int64(len(m.Level) + 4*len(part)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = graphKey(spec)
	}
}

// keySink keeps BenchmarkGraphKey's call from being optimised away.
var keySink [32]byte

// TestEvaluateAll checks the fan-out path returns the same outcomes as
// serial Evaluate calls, builds the shared graph once, and works at
// parallelism > 1.
func TestEvaluateAll(t *testing.T) {
	spec, _, _ := testSpec(t)
	strategies := []flusim.Strategy{flusim.Eager, flusim.LIFO, flusim.CriticalPathFirst, flusim.RandomOrder}

	serial := New(Options{Parallelism: 1})
	want := make([]*Outcome, len(strategies))
	for i, s := range strategies {
		sp := spec
		sp.Sim.Strategy = s
		sp.Sim.Seed = 11
		out, err := serial.Evaluate(sp)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}

	for _, par := range []int{1, 4} {
		e := New(Options{Parallelism: par})
		specs := make([]Spec, len(strategies))
		for i, s := range strategies {
			specs[i] = spec
			specs[i].Sim.Strategy = s
			specs[i].Sim.Seed = 11
		}
		outs, err := e.EvaluateAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			if outs[i].Makespan != want[i].Makespan {
				t.Errorf("parallelism %d, strategy %v: makespan %d, want %d",
					par, strategies[i], outs[i].Makespan, want[i].Makespan)
			}
			if outs[i].CommVolume != want[i].CommVolume {
				t.Errorf("parallelism %d, strategy %v: comm %d, want %d",
					par, strategies[i], outs[i].CommVolume, want[i].CommVolume)
			}
		}
		// One graph, shared: only the first spec may have built it.
		built := 0
		for _, out := range outs {
			if !out.GraphCached {
				built++
			}
		}
		if built != 1 {
			t.Errorf("parallelism %d: %d graph builds for one decomposition, want 1", par, built)
		}
		if got := e.CacheLen(); got != 1 {
			t.Errorf("parallelism %d: cache holds %d graphs, want 1", par, got)
		}
	}
}

// TestCacheEviction bounds the cache at its configured size.
func TestCacheEviction(t *testing.T) {
	spec, _, part := testSpec(t)
	e := New(Options{Parallelism: 1, GraphCacheSize: 2})
	for i := 0; i < 4; i++ {
		p := append([]int32(nil), part...)
		p[0] = int32(i % 16)
		sp := spec
		sp.Part = p
		if _, err := e.Evaluate(sp); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.CacheLen(); got > 2 {
		t.Errorf("cache holds %d graphs, capacity 2", got)
	}

	disabled := New(Options{Parallelism: 1, GraphCacheSize: -1})
	if _, err := disabled.Evaluate(spec); err != nil {
		t.Fatal(err)
	}
	if got := disabled.CacheLen(); got != 0 {
		t.Errorf("disabled cache holds %d graphs", got)
	}
}

// TestMeshIDKeying: the same content under the same MeshID hits across
// distinct mesh allocations — the tempartd pattern, where every request
// re-resolves its mesh.
func TestMeshIDKeying(t *testing.T) {
	m1 := mesh.Cylinder(0.002)
	m2 := mesh.Cylinder(0.002)
	part := make([]int32, m1.NumCells())
	for i := range part {
		part[i] = int32(i % 8)
	}
	e := New(Options{Parallelism: 1})
	mk := func(m *mesh.Mesh) Spec {
		return Spec{
			Mesh: m, MeshID: "gen:CYLINDER:0.002", Part: part, NumDomains: 8,
			ProcOf: flusim.BlockMap(8, 2),
			Sim:    flusim.Config{Cluster: flusim.Cluster{NumProcs: 2, WorkersPerProc: 2}},
		}
	}
	if _, err := e.Evaluate(mk(m1)); err != nil {
		t.Fatal(err)
	}
	out, err := e.Evaluate(mk(m2))
	if err != nil {
		t.Fatal(err)
	}
	if !out.GraphCached {
		t.Error("same MeshID + content across allocations missed the cache")
	}
}
