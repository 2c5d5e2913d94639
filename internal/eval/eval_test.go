package eval

import (
	"context"
	"slices"
	"sync"
	"testing"

	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/taskgraph"
	"tempart/internal/temporal"
)

// commVolumeRef counts the dependency edges between tasks whose domains live
// on different processes by one pass over every task's predecessors: the
// reference for the count the simulation keeps as it releases successors.
func commVolumeRef(tg *taskgraph.TaskGraph, procOfDomain []int32) int64 {
	var vol int64
	for t := 0; t < tg.NumTasks(); t++ {
		pt := procOfDomain[tg.Tasks[t].Domain]
		for _, pr := range tg.PredsOf(int32(t)) {
			if procOfDomain[tg.Tasks[pr].Domain] != pt {
				vol++
			}
		}
	}
	return vol
}

// evalCommVolume evaluates (m, part) on one worker per process under every
// scheduler, with and without communication latency, and returns the comm
// volume, failing if any run or the reference disagrees.
func evalCommVolume(t *testing.T, m *mesh.Mesh, part []int32, k int, procOf []int32) int64 {
	t.Helper()
	tg, err := taskgraph.Build(m, part, k, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := commVolumeRef(tg, procOf)
	e := New(Options{})
	for _, s := range []flusim.Strategy{flusim.Eager, flusim.LIFO, flusim.CriticalPathFirst, flusim.RandomOrder} {
		for _, lat := range []int64{0, 3} {
			out, err := e.Evaluate(Spec{Mesh: m, Part: part, NumDomains: k, ProcOf: procOf,
				Sim: flusim.Config{Cluster: flusim.Cluster{NumProcs: int(slices.Max(procOf)) + 1, WorkersPerProc: 1},
					Strategy: s, CommLatency: lat}})
			if err != nil {
				t.Fatal(err)
			}
			if out.CommVolume != want {
				t.Fatalf("%v, latency %d: comm volume %d, reference %d", s, lat, out.CommVolume, want)
			}
		}
	}
	return want
}

func TestCommVolumeZeroWithinOneProc(t *testing.T) {
	m := mesh.Strip([]temporal.Level{0, 0, 0, 0})
	part := []int32{0, 0, 1, 1}
	// Both domains on one process: no communication.
	if v := evalCommVolume(t, m, part, 2, []int32{0, 0}); v != 0 {
		t.Errorf("CommVolume same-proc = %d, want 0", v)
	}
	// Separate processes: cross edges appear.
	if v := evalCommVolume(t, m, part, 2, []int32{0, 1}); v <= 0 {
		t.Errorf("CommVolume cross-proc = %d, want > 0", v)
	}
}

// TestFig11bShape: MC_TL's communication volume exceeds SC_OC's and grows
// with domain count.
func TestFig11bShape(t *testing.T) {
	m := mesh.Cylinder(0.001)
	numProcs := 4
	vol := func(strat partition.Strategy, k int) int64 {
		r, err := partition.PartitionMesh(context.Background(), m, k, strat, partition.Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		return evalCommVolume(t, m, r.Part, k, flusim.BlockMap(k, numProcs))
	}
	scoc8, mctl8 := vol(partition.SCOC, 8), vol(partition.MCTL, 8)
	if mctl8 <= scoc8 {
		t.Errorf("MC_TL comm volume %d not above SC_OC %d at k=8", mctl8, scoc8)
	}
	mctl16 := vol(partition.MCTL, 16)
	if mctl16 <= mctl8 {
		t.Errorf("MC_TL comm volume did not grow with domains: %d (k=16) vs %d (k=8)", mctl16, mctl8)
	}
}

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
// Build+Simulate pipeline on every reported number, on testSpec's bounded
// cluster and on the same processes with unbounded cores, where efficiency
// is reported as zero.
func TestEvaluateMatchesDirectPipeline(t *testing.T) {
	spec, m, part := testSpec(t)
	tg, err := taskgraph.Build(m, part, 16, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	unbounded := spec
	unbounded.Sim.Cluster.WorkersPerProc = 0
	for _, sp := range []Spec{spec, unbounded} {
		workers := sp.Sim.Cluster.WorkersPerProc
		out, err := New(Options{}).Evaluate(sp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := flusim.Simulate(tg, sp.ProcOf, sp.Sim)
		if err != nil {
			t.Fatal(err)
		}
		if out.Makespan != res.Makespan {
			t.Errorf("workers %d: makespan %d, direct pipeline %d", workers, out.Makespan, res.Makespan)
		}
		if out.CriticalPath != res.CriticalPath || out.TotalWork != res.TotalWork {
			t.Errorf("workers %d: bounds (%d, %d), direct (%d, %d)", workers,
				out.CriticalPath, out.TotalWork, res.CriticalPath, res.TotalWork)
		}
		if want := commVolumeRef(tg, sp.ProcOf); out.CommVolume != want {
			t.Errorf("workers %d: comm volume %d, want %d", workers, out.CommVolume, want)
		}
		if out.NumTasks != tg.NumTasks() || out.NumDeps != tg.NumDeps() {
			t.Errorf("workers %d: size (%d, %d), want (%d, %d)", workers,
				out.NumTasks, out.NumDeps, tg.NumTasks(), tg.NumDeps())
		}
		if out.Graph == nil || out.Graph.NumTasks() != tg.NumTasks() {
			t.Errorf("workers %d: outcome does not carry the simulated graph", workers)
		}
		if out.GraphCached {
			t.Errorf("workers %d: first evaluation reported a cached graph", workers)
		}
		if out.BuildSeconds <= 0 {
			t.Errorf("workers %d: first evaluation reported no build time", workers)
		}
		wantEff := 0.0
		if workers > 0 {
			wantEff = float64(res.TotalWork) / (float64(res.Makespan) * 16)
		}
		if out.Efficiency != wantEff {
			t.Errorf("workers %d: efficiency %g, want %g", workers, out.Efficiency, wantEff)
		}
	}
}

// TestGraphCacheHit asserts the second evaluation of the same decomposition
// reuses the cached graph, and that changing the partition or the levels
// misses.
func TestGraphCacheHit(t *testing.T) {
	spec, m, part := testSpec(t)
	e := New(Options{})
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
	e := New(Options{GraphCacheSize: 16})
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
		// The cache owns its copies: the caller's slice changed after
		// caching must not find the graph built from the old content.
		{"Part in place", func(sp *Spec) func() {
			old := part[0]
			part[0] = (old + 1) % 16
			return func() { part[0] = old }
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

	// A fresh part slice with equal content hits: the cache compares content.
	fresh := spec
	fresh.Part = slices.Clone(part)
	if out, err = e.Evaluate(fresh); err != nil {
		t.Fatal(err)
	} else if !out.GraphCached {
		t.Error("an equal part vector in a fresh slice missed the cache")
	}
}

// TestGraphCacheSharesLevelCopies: entries whose level vectors are equal
// share one copy, and no entry aliases the mesh's own slice.
func TestGraphCacheSharesLevelCopies(t *testing.T) {
	spec, _, part := testSpec(t)
	e := New(Options{})
	other := spec
	other.Part = slices.Clone(part)
	other.Part[0] = (other.Part[0] + 1) % 16
	for _, sp := range []Spec{spec, other} {
		if _, err := e.Evaluate(sp); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.cache) != 2 {
		t.Fatalf("cache holds %d graphs, want 2", len(e.cache))
	}
	a, b := e.cache[0].level, e.cache[1].level
	if &a[0] != &b[0] {
		t.Error("entries with equal levels keep separate level copies")
	}
	if &a[0] == &spec.Mesh.Level[0] {
		t.Error("the cache aliases the mesh's level slice")
	}
}

// TestEqualMatchesSlicesEqual checks the block compare against slices.Equal
// around the block size, with one element changed anywhere in the vector.
func TestEqualMatchesSlicesEqual(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 511, 512, 700} {
		a := make([]int32, n)
		for i := range a {
			a[i] = int32(i * 7)
		}
		if !equal(a, slices.Clone(a)) {
			t.Errorf("n=%d: equal vectors differ", n)
		}
		if n > 0 && equal(a, a[:n-1]) {
			t.Errorf("n=%d: a shorter vector is equal", n)
		}
		for i := 0; i < n; i++ {
			b := slices.Clone(a)
			b[i]++
			if equal(a, b) {
				t.Fatalf("n=%d: a change at %d is not seen", n, i)
			}
		}
	}
}

// BenchmarkGraphLookup measures the cache lookup every evaluation makes, on
// PPRIME_NOZZLE at scale 0.005 (62 748 cells) with four entries of one mesh
// cached. Their parts differ only in the last cell, so every comparison with
// a non-matching entry reads the whole vector: "hit" finds the least
// recently used entry behind three such entries, "miss" reads all four.
func BenchmarkGraphLookup(b *testing.B) {
	m := mesh.Nozzle(0.005)
	part := make([]int32, m.NumCells())
	for i := range part {
		part[i] = int32(i % 12)
	}
	spec := func(last int32) *Spec {
		p := slices.Clone(part)
		p[len(p)-1] = last
		return &Spec{Mesh: m, MeshID: "gen:PPRIME_NOZZLE:0.005", Part: p, NumDomains: 12}
	}
	e := New(Options{GraphCacheSize: 4})
	var specs []*Spec
	for last := int32(0); last < 4; last++ {
		specs = append(specs, spec(last))
		e.insert(specs[last], &taskgraph.TaskGraph{})
	}
	b.Run("hit", func(b *testing.B) {
		b.SetBytes(int64(len(m.Level) + 4*len(part)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if e.lookup(specs[i%4]) == nil {
				b.Fatal("miss")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		missing := spec(4)
		b.SetBytes(int64(len(m.Level) + 4*len(part)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if e.lookup(missing) != nil {
				b.Fatal("hit")
			}
		}
	})
}

// TestEvaluateRejectsNegativeCosts: a negative unit cost is an error, not a
// negative makespan.
func TestEvaluateRejectsNegativeCosts(t *testing.T) {
	spec, _, _ := testSpec(t)
	e := New(Options{})
	for _, costs := range [][2]int32{{-5, 0}, {0, -5}} {
		sp := spec
		sp.FaceCost, sp.CellCost = costs[0], costs[1]
		if out, err := e.Evaluate(sp); err == nil {
			t.Errorf("costs %v: makespan %d, want an error", costs, out.Makespan)
		}
	}
	if got := len(e.cache); got != 0 {
		t.Errorf("rejected specs left %d cached graphs", got)
	}
}

// TestEvaluateConcurrent runs the four schedulers on one spec from
// concurrent goroutines, as tempartd's workers do: the simulations share
// one cached graph, every makespan equals the serial one, and the cache
// ends with exactly one entry.
func TestEvaluateConcurrent(t *testing.T) {
	spec, _, _ := testSpec(t)
	spec.Sim.Seed = 11
	strategies := []flusim.Strategy{flusim.Eager, flusim.LIFO, flusim.CriticalPathFirst, flusim.RandomOrder}
	want := make([]int64, len(strategies))
	serial := New(Options{})
	for i, s := range strategies {
		sp := spec
		sp.Sim.Strategy = s
		out, err := serial.Evaluate(sp)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out.Makespan
	}

	e := New(Options{})
	const rounds = 3
	got := make([]int64, rounds*len(strategies))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := spec
			sp.Sim.Strategy = strategies[i%len(strategies)]
			out, err := e.Evaluate(sp)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = out.Makespan
		}()
	}
	wg.Wait()
	for i := range got {
		s := strategies[i%len(strategies)]
		if errs[i] != nil {
			t.Fatalf("strategy %v: %v", s, errs[i])
		}
		if got[i] != want[i%len(strategies)] {
			t.Errorf("strategy %v: concurrent makespan %d, serial %d", s, got[i], want[i%len(strategies)])
		}
	}
	if n := len(e.cache); n != 1 {
		t.Errorf("cache holds %d graphs for one decomposition, want 1", n)
	}
}

// TestCacheEviction bounds the cache at its configured size.
func TestCacheEviction(t *testing.T) {
	spec, _, part := testSpec(t)
	e := New(Options{GraphCacheSize: 2})
	for i := 0; i < 4; i++ {
		p := append([]int32(nil), part...)
		p[0] = int32(i % 16)
		sp := spec
		sp.Part = p
		if _, err := e.Evaluate(sp); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(e.cache); got > 2 {
		t.Errorf("cache holds %d graphs, capacity 2", got)
	}

	disabled := New(Options{GraphCacheSize: -1})
	if _, err := disabled.Evaluate(spec); err != nil {
		t.Fatal(err)
	}
	if got := len(disabled.cache); got != 0 {
		t.Errorf("disabled cache holds %d graphs", got)
	}
}

// TestMeshIDKeying: the same content under the same MeshID hits across
// distinct mesh allocations — the tempartd pattern, where every request
// re-resolves its mesh — and without a MeshID it does not.
func TestMeshIDKeying(t *testing.T) {
	m1 := mesh.Cylinder(0.002)
	m2 := mesh.Cylinder(0.002)
	part := make([]int32, m1.NumCells())
	for i := range part {
		part[i] = int32(i % 8)
	}
	e := New(Options{})
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

	// Without a MeshID a cached graph belongs to one mesh allocation: equal
	// levels and part over the other allocation miss.
	bare1, bare2 := mk(m1), mk(m2)
	bare1.MeshID, bare2.MeshID = "", ""
	if _, err := e.Evaluate(bare1); err != nil {
		t.Fatal(err)
	}
	if out, err = e.Evaluate(bare2); err != nil {
		t.Fatal(err)
	}
	if out.GraphCached {
		t.Error("a MeshID-less spec over another mesh allocation hit the cache")
	}
}
