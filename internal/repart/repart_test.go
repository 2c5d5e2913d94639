package repart

import (
	"context"
	"math"
	"slices"
	"testing"

	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/taskgraph"
	"tempart/internal/temporal"
)

func TestModeStringRoundTrip(t *testing.T) {
	for _, m := range []Mode{Auto, Keep, Diffuse, Refine, Scratch} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("nonsense"); err == nil {
		t.Error("ParseMode accepted nonsense")
	}
}

func TestRepartitionValidates(t *testing.T) {
	m := mesh.Strip(levels4())
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	old, err := partition.Partition(context.Background(), g, 2, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Repartition(context.Background(), g, &partition.Result{Part: []int32{0}, NumParts: 2}, Options{}); err == nil {
		t.Error("accepted mismatched assignment length")
	}
	if _, err := Repartition(context.Background(), g, &partition.Result{Part: old.Part, NumParts: 0}, Options{}); err == nil {
		t.Error("accepted k = 0")
	}
	if _, err := Repartition(context.Background(), g, old, Options{MigBytes: []int64{1}}); err == nil {
		t.Error("accepted mismatched MigBytes length")
	}
	// A label outside [0, k) used to panic with an index out of range in the
	// part-weight tables; every mode must refuse it instead.
	for _, bad := range []int32{-1, 2, 7} {
		part := slices.Clone(old.Part)
		part[3] = bad
		for _, mode := range []Mode{Auto, Keep, Diffuse, Refine, Scratch} {
			if _, err := Repartition(context.Background(), g, &partition.Result{Part: part, NumParts: 2}, Options{Mode: mode}); err == nil {
				t.Errorf("mode %v accepted label %d with k = 2", mode, bad)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Repartition(ctx, g, old, Options{Mode: Refine}); err == nil {
		t.Error("cancelled context not reported")
	}
}

func TestRepartitionKeepsBalancedPartition(t *testing.T) {
	m := mesh.Cylinder(0.002)
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	old, err := partition.Partition(context.Background(), g, 8, partition.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The small fixture quantises above the default 1.05 tolerance, so give
	// Auto a target the fresh partition actually meets.
	res, err := Repartition(context.Background(), g, old, Options{
		Part: partition.Options{ImbalanceTol: old.MaxImbalance() + 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != Keep {
		t.Errorf("balanced partition chose mode %v, want keep", res.Mode)
	}
	if res.Stats.MovedCells != 0 {
		t.Errorf("keep moved %d cells", res.Stats.MovedCells)
	}
}

// driftedCylinder builds the drift fixture: a cylinder partitioned at
// epoch 0, then its hot core shifted so the old assignment is unbalanced.
func driftedCylinder(t *testing.T, scale float64, k int, shift float64) (*mesh.Mesh, *partition.Result) {
	t.Helper()
	m := mesh.Cylinder(scale)
	old, err := partition.PartitionMesh(context.Background(), m, k, partition.MCTL, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.ReassignLevels(func(x, y, z float64) float64 {
		return distXYZToSegment(x, y, z, 0.9+shift, 0.5, 0.5, 1.1+shift, 0.5, 0.5)
	}, mesh.CylinderCounts)
	return m, old
}

func TestRepartitionModesRestoreBalance(t *testing.T) {
	for _, mode := range []Mode{Diffuse, Refine, Scratch} {
		t.Run(mode.String(), func(t *testing.T) {
			m, old := driftedCylinder(t, 0.002, 8, 0.3)
			g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
			before := partition.NewResult(g, old.Part, 8).MaxImbalance()
			res, err := Repartition(context.Background(), g, old, Options{
				Mode:     mode,
				MigBytes: MeshMigrationBytes(m),
			})
			if err != nil {
				t.Fatal(err)
			}
			after := res.MaxImbalance()
			if after >= before {
				t.Errorf("imbalance %.3f did not improve on %.3f", after, before)
			}
			// Incremental modes must approach the partitioner's tolerance;
			// allow slack for quantisation on this small fixture.
			if after > 1.30 {
				t.Errorf("imbalance %.3f still above 1.30", after)
			}
			if err := res.Validate(g); err != nil {
				t.Error(err)
			}
			if res.Stats.TotalCells != m.NumCells() || res.Stats.MovedCells == 0 {
				t.Errorf("implausible stats %+v", res.Stats)
			}
		})
	}
}

// TestRepartitionNegativePenaltyDisablesBias: MigrationPenalty < 0 is the
// documented "no penalty" setting; every incremental mode must run unbiased
// rather than panic (diffuse sorted a nil penalty slice) or error (refine
// passed a nil penalty that the k-way refinement rejected).
func TestRepartitionNegativePenaltyDisablesBias(t *testing.T) {
	for _, mode := range []Mode{Auto, Diffuse, Refine, Scratch} {
		t.Run(mode.String(), func(t *testing.T) {
			m, old := driftedCylinder(t, 0.002, 8, 0.3)
			g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
			before := partition.NewResult(g, old.Part, 8).MaxImbalance()
			res, err := Repartition(context.Background(), g, old, Options{
				Mode:             mode,
				MigrationPenalty: -1,
				MigBytes:         MeshMigrationBytes(m),
			})
			if err != nil {
				t.Fatal(err)
			}
			if after := res.MaxImbalance(); after >= before {
				t.Errorf("imbalance %.3f did not improve on %.3f", after, before)
			}
			if err := res.Validate(g); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRepartitionPenaltyRange: a NaN or +Inf MigrationPenalty is an error,
// -Inf disables the bias like any negative value, and a finite penalty too
// large for int64 gain units saturates at the cap instead of wrapping to
// the weakest bias.
func TestRepartitionPenaltyRange(t *testing.T) {
	m, old := driftedCylinder(t, 0.001, 8, 0.3)
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	bytes := MeshMigrationBytes(m)
	run := func(pen float64) (*Result, error) {
		return Repartition(context.Background(), g, old, Options{
			Mode: Refine, MigrationPenalty: pen, MigBytes: bytes, Part: partition.Options{Seed: 1}})
	}
	digest := func(pen float64) string {
		res, err := run(pen)
		if err != nil {
			t.Fatalf("penalty %v: %v", pen, err)
		}
		return partDigest(res.Part)
	}
	for _, pen := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := run(pen); err == nil {
			t.Errorf("penalty %v accepted", pen)
		}
	}
	if digest(math.Inf(-1)) != digest(-1) {
		t.Error("-Inf does not disable the bias like -1")
	}
	top := penaltyCap(g.NumVertices())
	for _, pen := range []float64{1e30, 1e20} {
		for v, p := range penalties(g, Options{MigrationPenalty: pen, MigBytes: bytes}) {
			if p != top {
				t.Fatalf("penalty %g: cell %d gets %d, cap %d", pen, v, p, top)
			}
		}
	}
	if digest(1e30) != digest(1e20) {
		t.Error("two penalties above the cap repartition differently")
	}
}

func TestIncrementalMovesLessThanScratch(t *testing.T) {
	m, old := driftedCylinder(t, 0.002, 8, 0.2)
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	bytes := MeshMigrationBytes(m)

	inc, err := Repartition(context.Background(), g, old, Options{Mode: Refine, MigBytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	scr, err := Repartition(context.Background(), g, old, Options{Mode: Scratch, MigBytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats.MovedCells >= scr.Stats.MovedCells {
		t.Errorf("incremental moved %d cells, scratch %d — no migration savings",
			inc.Stats.MovedCells, scr.Stats.MovedCells)
	}
}

func TestOverlapRelabelIdentity(t *testing.T) {
	part := []int32{0, 0, 1, 1, 2, 2, 2}
	relabel := overlapRelabel(part, part, 3, nil)
	for p, to := range relabel {
		if int32(p) != to {
			t.Errorf("relabel[%d] = %d, want identity", p, to)
		}
	}
}

func TestPlan(t *testing.T) {
	oldPart := []int32{0, 0, 1, 1}
	newPart := []int32{0, 1, 1, 0}
	bytes := []int64{10, 20, 30, 40}
	plan, err := Plan(oldPart, newPart, 2, bytes)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 2 {
		t.Fatalf("moves = %+v, want 2", plan.Moves)
	}
	if got := plan.Stats.MovedBytes; got != 60 {
		t.Errorf("moved bytes = %d, want 60", got)
	}
	if len(plan.Sends[0]) != 1 || plan.Sends[0][0] != 1 {
		t.Errorf("sends[0] = %v, want [1]", plan.Sends[0])
	}
	if len(plan.Recvs[0]) != 1 || plan.Recvs[0][0] != 3 {
		t.Errorf("recvs[0] = %v, want [3]", plan.Recvs[0])
	}
	var send, recv int
	for p := 0; p < 2; p++ {
		send += len(plan.Sends[p])
		recv += len(plan.Recvs[p])
	}
	if send != len(plan.Moves) || recv != len(plan.Moves) {
		t.Errorf("send/recv totals %d/%d != %d moves", send, recv, len(plan.Moves))
	}

	if _, err := Plan([]int32{0}, []int32{0, 1}, 2, nil); err == nil {
		t.Error("accepted mismatched lengths")
	}
	if _, err := Plan([]int32{0}, []int32{5}, 2, nil); err == nil {
		t.Error("accepted out-of-range target")
	}
}

func TestMeshMigrationBytes(t *testing.T) {
	m := mesh.Strip(levels4())
	bytes := MeshMigrationBytes(m)
	if len(bytes) != m.NumCells() {
		t.Fatalf("%d sizes for %d cells", len(bytes), m.NumCells())
	}
	for v, b := range bytes {
		if b < cellBytes {
			t.Errorf("cell %d: %d bytes < cell payload %d", v, b, cellBytes)
		}
	}
}

// TestIncrementalMakespanAndMigrationAcceptance is the acceptance criterion
// for the incremental repartitioner: on the drift workload at epoch ≥ 2,
// incremental repartitioning reaches within 5% of the fresh-from-scratch
// makespan while migrating at most half the cells the scratch repartition
// moves.
func TestIncrementalMakespanAndMigrationAcceptance(t *testing.T) {
	const (
		domains = 32
		epochs  = 3
	)
	cluster := flusim.Cluster{NumProcs: 8, WorkersPerProc: 4}
	procOf := flusim.BlockMap(domains, cluster.NumProcs)

	m := mesh.Cylinder(0.004)
	p0, err := partition.PartitionMesh(context.Background(), m, domains, partition.MCTL, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bytes := MeshMigrationBytes(m)

	makespan := func(part []int32) int64 {
		t.Helper()
		tg, err := taskgraph.Build(m, part, domains, taskgraph.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := flusim.Simulate(tg, procOf, flusim.Config{Cluster: cluster})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Makespan
	}

	incPart := slices.Clone(p0.Part)
	scrPart := slices.Clone(p0.Part)
	var incMoved, scrMoved int
	var incSpan, scrSpan int64
	for e := 1; e <= epochs; e++ {
		shift := 0.1 * float64(e)
		m.ReassignLevels(func(x, y, z float64) float64 {
			return distXYZToSegment(x, y, z, 0.9+shift, 0.5, 0.5, 1.1+shift, 0.5, 0.5)
		}, mesh.CylinderCounts)
		g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})

		inc, err := Repartition(context.Background(), g,
			partition.NewResult(g, incPart, domains),
			Options{MigBytes: bytes, Part: partition.Options{Seed: int64(e), RefinePasses: 16}})
		if err != nil {
			t.Fatal(err)
		}
		scr, err := Repartition(context.Background(), g,
			partition.NewResult(g, scrPart, domains),
			Options{Mode: Scratch, MigBytes: bytes, Part: partition.Options{Seed: int64(e)}})
		if err != nil {
			t.Fatal(err)
		}
		incPart, scrPart = inc.Part, scr.Part
		incMoved, scrMoved = inc.Stats.MovedCells, scr.Stats.MovedCells
		incSpan, scrSpan = makespan(incPart), makespan(scrPart)
		t.Logf("epoch %d: mode=%v inc span=%d moved=%d imb=%.3f | scratch span=%d moved=%d imb=%.3f",
			e, inc.Mode, incSpan, incMoved, inc.MaxImbalance(), scrSpan, scrMoved, scr.MaxImbalance())
	}

	if ratio := float64(incSpan) / float64(scrSpan); ratio > 1.05 {
		t.Errorf("incremental makespan %d is %.1f%% above scratch %d, want ≤ 5%%",
			incSpan, 100*(ratio-1), scrSpan)
	}
	if scrMoved == 0 || incMoved > scrMoved/2 {
		t.Errorf("incremental moved %d cells, scratch moved %d — want ≤ half",
			incMoved, scrMoved)
	}
}

func levels4() []temporal.Level {
	return []temporal.Level{0, 0, 1, 1, 2, 2, 3, 3}
}

func distXYZToSegment(x, y, z, ax, ay, az, bx, by, bz float64) float64 {
	vx, vy, vz := bx-ax, by-ay, bz-az
	wx, wy, wz := x-ax, y-ay, z-az
	vv := vx*vx + vy*vy + vz*vz
	t := 0.0
	if vv > 0 {
		t = (wx*vx + wy*vy + wz*vz) / vv
		t = math.Max(0, math.Min(1, t))
	}
	dx, dy, dz := x-(ax+t*vx), y-(ay+t*vy), z-(az+t*vz)
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}
