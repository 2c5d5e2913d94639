package partition

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tempart/internal/graph"
	"tempart/internal/mesh"
	"tempart/internal/obs"
	"tempart/internal/temporal"
)

func TestPartitionRejectsBadK(t *testing.T) {
	g := graph.Grid(4, 4)
	if _, err := Partition(context.Background(), g, 0, Options{}); err == nil {
		t.Fatal("Partition accepted k=0")
	}
}

func TestPartitionK1IsTrivial(t *testing.T) {
	g := graph.Grid(4, 4)
	r, err := Partition(context.Background(), g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeCut != 0 {
		t.Errorf("EdgeCut = %d, want 0 for k=1", r.EdgeCut)
	}
	for v, p := range r.Part {
		if p != 0 {
			t.Fatalf("vertex %d in part %d, want 0", v, p)
		}
	}
}

func TestBisectGridBalanced(t *testing.T) {
	g := graph.Grid(16, 16)
	r, err := Partition(context.Background(), g, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if imb := r.MaxImbalance(); imb > 1.06 {
		t.Errorf("MaxImbalance = %.3f, want <= 1.06", imb)
	}
	// A 16x16 grid's optimal bisection cut is 16; the multilevel heuristic
	// should land well under 2x that.
	if r.EdgeCut > 32 {
		t.Errorf("EdgeCut = %d, want <= 32", r.EdgeCut)
	}
}

func TestKWayGridBalanced(t *testing.T) {
	g := graph.Grid(24, 24)
	for _, k := range []int{3, 4, 7, 8} {
		r, err := Partition(context.Background(), g, k, Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Validate(g); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// RB compounds tolerance across ~log2(k) levels.
		if imb := r.MaxImbalance(); imb > 1.20 {
			t.Errorf("k=%d: MaxImbalance = %.3f, want <= 1.20", k, imb)
		}
	}
}

func TestMultiConstraintBisectionBalancesEveryLevel(t *testing.T) {
	// Grid with two interleaved classes arranged adversarially: class 0 on
	// the left half, class 1 on the right half. Single-constraint balance
	// could just cut down the middle and give each side one class only;
	// multi-constraint must split both halves.
	nx, ny := 16, 16
	b := graph.NewBuilder(2)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			if i < nx/2 {
				b.AddVertex(1, 0)
			} else {
				b.AddVertex(0, 1)
			}
		}
	}
	id := func(i, j int) int32 { return int32(i*ny + j) }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			if i+1 < nx {
				b.AddEdge(id(i, j), id(i+1, j), 1)
			}
			if j+1 < ny {
				b.AddEdge(id(i, j), id(i, j+1), 1)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Partition(context.Background(), g, 2, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	imb := r.Imbalance()
	for c, v := range imb {
		if v > 1.10 {
			t.Errorf("constraint %d imbalance = %.3f, want <= 1.10 (weights %v)", c, v, r.PartWeights)
		}
	}
}

func TestPartitionMeshSCOCBalancesCost(t *testing.T) {
	m := mesh.Cylinder(0.001)
	r, err := PartitionMesh(context.Background(), m, 8, SCOC, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.SingleCost})
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if imb := r.MaxImbalance(); imb > 1.25 {
		t.Errorf("SC_OC cost imbalance = %.3f, want <= 1.25", imb)
	}
}

func TestPartitionMeshMCTLBalancesAllLevels(t *testing.T) {
	m := mesh.Cylinder(0.002)
	k := 8
	r, err := PartitionMesh(context.Background(), m, k, MCTL, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	imb := r.Imbalance()
	census := m.Census()
	for c, v := range imb {
		// Sparse levels (few cells spread over k parts) get proportionally
		// more slack: the ±1-cell granularity limit.
		perPart := float64(census[c]) / float64(k)
		allowed := 1.30 + 2.0/perPart
		if v > allowed {
			t.Errorf("level %d imbalance = %.3f, want <= %.3f (%.1f cells/part)", c, v, allowed, perPart)
		}
	}
}

// TestMCTLBeatsSCOCPerLevelBalance is the core phenomenon of the paper: on a
// hotspot mesh, SC_OC balances total cost but skews the per-level census,
// while MC_TL balances every level.
func TestMCTLBeatsSCOCPerLevelBalance(t *testing.T) {
	m := mesh.Cylinder(0.002)
	k := 8
	sc, err := PartitionMesh(context.Background(), m, k, SCOC, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := PartitionMesh(context.Background(), m, k, MCTL, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate both on the per-level census.
	gl := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	scLevels := NewResult(gl, sc.Part, k)
	mcLevels := NewResult(gl, mc.Part, k)
	worstSC := scLevels.MaxImbalance()
	worstMC := mcLevels.MaxImbalance()
	if worstMC >= worstSC {
		t.Errorf("MC_TL per-level imbalance %.2f not better than SC_OC %.2f", worstMC, worstSC)
	}
	t.Logf("per-level imbalance: SC_OC=%.2f MC_TL=%.2f", worstSC, worstMC)
}

func TestGeometricRCB(t *testing.T) {
	m := mesh.Cube(0.1)
	r, err := GeometricRCB(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.SingleCost})
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if imb := r.MaxImbalance(); imb > 1.40 {
		t.Errorf("RCB cost imbalance = %.3f, want <= 1.40", imb)
	}
}

func TestRepairConnectivity(t *testing.T) {
	// 8x8 grid split into 2 parts with a deliberately disconnected part 0:
	// main block on the left plus a stray corner on the right.
	g := graph.Grid(8, 8)
	part := make([]int32, 64)
	for v := range part {
		if v%8 < 4 {
			part[v] = 0
		} else {
			part[v] = 1
		}
	}
	part[63] = 0 // stray fragment of part 0 inside part 1 territory
	before := CountFragments(g, part, 2)
	if before[0] != 2 {
		t.Fatalf("setup: part 0 has %d fragments, want 2", before[0])
	}
	moved := RepairConnectivity(g, part, 2, 0.25)
	if moved != 1 {
		t.Errorf("moved = %d, want 1", moved)
	}
	after := CountFragments(g, part, 2)
	if after[0] != 1 || after[1] != 1 {
		t.Errorf("fragments after repair = %v, want [1 1]", after)
	}
}

func TestRepairConnectivityKeepsLargeFragments(t *testing.T) {
	// Two equal-size fragments of part 0: neither is "small", so the repair
	// must leave them alone.
	g := graph.Grid(4, 4)
	part := []int32{
		0, 0, 1, 1,
		0, 0, 1, 1,
		1, 1, 0, 0,
		1, 1, 0, 0,
	}
	moved := RepairConnectivity(g, part, 2, 0.25)
	if moved != 0 {
		t.Errorf("moved = %d, want 0 (fragments equal-sized)", moved)
	}
}

func TestDualPhase(t *testing.T) {
	m := mesh.Cylinder(0.001)
	res, err := DualPhase(context.Background(), m, 4, 4, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDomains != 16 {
		t.Fatalf("NumDomains = %d, want 16", res.NumDomains)
	}
	// Every cell assigned to a valid domain; domains map to the right procs.
	for c, d := range res.Domain {
		if d < 0 || int(d) >= 16 {
			t.Fatalf("cell %d in domain %d", c, d)
		}
	}
	for d, p := range res.ProcOfDomain {
		if int(p) != d/4 {
			t.Errorf("domain %d on proc %d, want %d", d, p, d/4)
		}
	}
	// Phase 1 balance: per-level census balanced across processes.
	gl := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	procPart := make([]int32, m.NumCells())
	for c, d := range res.Domain {
		procPart[c] = res.ProcOfDomain[d]
	}
	r := NewResult(gl, procPart, 4)
	census := m.Census()
	for c, v := range r.Imbalance() {
		perPart := float64(census[c]) / 4
		if v > 1.4+4.0/perPart {
			t.Errorf("dual-phase proc-level imbalance at level %d = %.3f", c, v)
		}
	}
}

func TestHeavyEdgeMatchingValid(t *testing.T) {
	g := graph.Grid(10, 10)
	rng := rand.New(rand.NewSource(1))
	cmap, nc, ok := heavyEdgeMatching(context.Background(), g, rng, nil, new(scratch))
	if !ok {
		t.Fatal("heavyEdgeMatching reported cancellation with a live context")
	}
	if nc <= g.NumVertices()/3 || nc > g.NumVertices() {
		t.Errorf("ncoarse = %d out of expected range for %d vertices", nc, g.NumVertices())
	}
	// cmap dense in [0,nc), and each coarse vertex has 1 or 2 fine vertices.
	counts := make([]int, nc)
	for _, cv := range cmap {
		if cv < 0 || int(cv) >= nc {
			t.Fatalf("cmap value %d out of range", cv)
		}
		counts[cv]++
	}
	for cv, n := range counts {
		if n < 1 || n > 2 {
			t.Errorf("coarse vertex %d has %d fine vertices, want 1 or 2", cv, n)
		}
	}
	// Matched pairs must be adjacent.
	byCoarse := map[int32][]int32{}
	for v, cv := range cmap {
		byCoarse[cv] = append(byCoarse[cv], int32(v))
	}
	for _, vs := range byCoarse {
		if len(vs) == 2 && !slices.Contains(g.Neighbors(vs[0]), vs[1]) {
			t.Errorf("matched non-adjacent vertices %v", vs)
		}
	}
}

func TestCoarsenHierarchyConservesWeight(t *testing.T) {
	g := graph.Grid(20, 20)
	rng := rand.New(rand.NewSource(2))
	h := coarsen(context.Background(), g, 16, rng, nil, new(scratch), streamFloor(Options{}))
	defer h.close()
	if h.levels() < 2 {
		t.Fatal("coarsening produced no levels")
	}
	want := g.TotalWeights()
	for i := 0; i < h.levels(); i++ {
		got := h.graph(i).TotalWeights()
		for c := range want {
			if got[c] != want[c] {
				t.Errorf("level %d: total weight %v, want %v", i, got, want)
			}
		}
	}
	last := h.coarsest().NumVertices()
	if last > 40 { // 16 requested; matching can stall slightly above
		t.Errorf("coarsest graph has %d vertices, want near 16", last)
	}
}

func TestFMPassNeverWorsens(t *testing.T) {
	// Property: one FM pass never worsens (violation, cut) lexicographically.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.Grid(8+rng.Intn(8), 8+rng.Intn(8))
		n := g.NumVertices()
		where := make([]int32, n)
		for i := range where {
			where[i] = int32(rng.Intn(2))
		}
		caps0, caps1 := sideCaps(g, 0.5, 1.05)
		sc := new(scratch)
		b := newBisection(g, append([]int32(nil), where...), caps0, caps1, sc)
		v0, c0 := b.violation(), ComputeEdgeCut(g, b.where)
		refineBisection(b, 1, sc, obs.Span{})
		v1, c1 := b.violation(), ComputeEdgeCut(g, b.where)
		return betterState(v1, c1-c0, v0, 0) || (v1 == v0 && c1 == c0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionCoversAllVerticesProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.Grid(6+rng.Intn(10), 6+rng.Intn(10))
		k := 2 + int(kRaw%6)
		r, err := Partition(context.Background(), g, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		if err := r.Validate(g); err != nil {
			return false
		}
		// Edge cut computed two ways agrees.
		return r.EdgeCut == ComputeEdgeCut(g, r.Part)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionDeterministicForSeed(t *testing.T) {
	g := graph.Grid(12, 12)
	r1, _ := Partition(context.Background(), g, 4, Options{Seed: 42})
	r2, _ := Partition(context.Background(), g, 4, Options{Seed: 42})
	for v := range r1.Part {
		if r1.Part[v] != r2.Part[v] {
			t.Fatalf("non-deterministic at vertex %d", v)
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, s := range []Strategy{SCOC, MCTL, UnitCells, GeomRCB} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round-trip of %v failed: %v %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted bogus label")
	}
}

func TestResultImbalanceZeroWeightConstraint(t *testing.T) {
	r := &Result{
		NumParts:    2,
		PartWeights: [][]int64{{0, 4}, {0, 4}},
	}
	imb := r.Imbalance()
	if imb[0] != 1.0 {
		t.Errorf("zero-weight constraint imbalance = %v, want 1.0", imb[0])
	}
}

func TestStrip2PartSanity(t *testing.T) {
	// A strip of 8 cells, levels [0 0 1 1 2 2 2 2]: MC_TL into 2 parts must
	// give each part one level-0 cell, one level-1, two level-2.
	m := mesh.Strip([]temporal.Level{0, 0, 1, 1, 2, 2, 2, 2})
	r, err := PartitionMesh(context.Background(), m, 2, MCTL, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		if r.PartWeights[0][c] != r.PartWeights[1][c] {
			t.Errorf("level %d split %d/%d, want equal", c, r.PartWeights[0][c], r.PartWeights[1][c])
		}
	}
}

func TestTrialsNeverWorse(t *testing.T) {
	m := mesh.Cylinder(0.001)
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	single, err := Partition(context.Background(), g, 16, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Partition(context.Background(), g, 16, Options{Seed: 9, Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := multi.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Best-of-4 includes the seed-9 run (first trial), so it can only match
	// or improve on (imbalance, cut).
	if betterResult(single, multi) {
		t.Errorf("Trials=4 worse than single: imb %.3f/%.3f cut %d/%d",
			multi.MaxImbalance(), single.MaxImbalance(), multi.EdgeCut, single.EdgeCut)
	}
}

func TestPartitionZeroWeightConstraint(t *testing.T) {
	// A constraint column that no vertex carries (an empty temporal level)
	// must not break the partitioner or the balance accounting.
	b := graph.NewBuilder(3)
	for i := 0; i < 24; i++ {
		b.AddVertex(1, 0, int32(i%2)) // middle constraint all-zero
	}
	for i := 0; i+1 < 24; i++ {
		b.AddEdge(int32(i), int32(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Partition(context.Background(), g, 4, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	imb := r.Imbalance()
	if imb[1] != 1.0 {
		t.Errorf("empty constraint imbalance = %v, want 1.0", imb[1])
	}
	if imb[0] > 1.35 || imb[2] > 1.6 {
		t.Errorf("live constraints unbalanced: %v", imb)
	}
}

func TestPartitionDisconnectedGraph(t *testing.T) {
	// Two disconnected 4x4 grids; the partitioner must still produce a
	// complete, reasonably balanced 4-way partition.
	b := graph.NewBuilder(1)
	for i := 0; i < 32; i++ {
		b.AddVertex(1)
	}
	id := func(block, i, j int) int32 { return int32(block*16 + i*4 + j) }
	for block := 0; block < 2; block++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if i+1 < 4 {
					b.AddEdge(id(block, i, j), id(block, i+1, j), 1)
				}
				if j+1 < 4 {
					b.AddEdge(id(block, i, j), id(block, i, j+1), 1)
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Partition(context.Background(), g, 4, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if imb := r.MaxImbalance(); imb > 1.30 {
		t.Errorf("disconnected-graph imbalance %.2f", imb)
	}
}

func TestSFCThroughPartitionMesh(t *testing.T) {
	m := mesh.Cube(0.05)
	r, err := PartitionMesh(context.Background(), m, 6, SFC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.SingleCost})
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
}
