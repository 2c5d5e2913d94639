package solver

import (
	"context"
	"testing"
	"time"

	"tempart/internal/flusim"
	"tempart/internal/fv"
	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/runtime"
)

func TestNewRejectsBadConfig(t *testing.T) {
	m := mesh.Cube(0.01)
	if _, err := New(context.Background(), m, Config{NumDomains: 0}); err == nil {
		t.Fatal("accepted 0 domains")
	}
}

func TestRunConservesMass(t *testing.T) {
	m := mesh.Cylinder(0.0005)
	s, err := New(context.Background(), m, Config{NumDomains: 4, Strategy: partition.MCTL, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MassDriftRel > 1e-10 {
		t.Errorf("mass drift %.3e", rep.MassDriftRel)
	}
	if len(rep.WallPerIteration) != 3 {
		t.Errorf("iterations recorded = %d", len(rep.WallPerIteration))
	}
}

func TestRunMatchesSerialReference(t *testing.T) {
	m := mesh.Cube(0.02)
	s, err := New(context.Background(), m, Config{NumDomains: 3, Strategy: partition.SCOC, Workers: 3, Policy: runtime.WorkStealing})
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference with identical initial state, on the solver's
	// domain-reordered mesh copy (cell ids differ from the input mesh).
	ref := fv.NewState(s.Mesh, s.State.Params())
	copy(ref.U, s.State.U)
	ref.RunIteration()
	ref.RunIteration()

	if _, err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	// The per-face-side accumulator scheme makes every slot single-writer,
	// so the task-parallel result is bit-exact equal to the serial one.
	for c := range ref.U {
		if ref.U[c] != s.State.U[c] {
			t.Fatalf("cell %d: parallel %v != serial %v (determinism broken)", c, s.State.U[c], ref.U[c])
		}
	}
}

func TestVirtualMakespanBounds(t *testing.T) {
	m := mesh.Cylinder(0.0005)
	s, err := New(context.Background(), m, Config{NumDomains: 8, Strategy: partition.MCTL, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.VirtualMakespan(rep, flusim.Cluster{NumProcs: 4, WorkersPerProc: 2}, flusim.Eager, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < res.CriticalPath {
		t.Error("virtual makespan below critical path")
	}
	var wall int64
	for _, d := range rep.Durations {
		wall += d.Nanoseconds()
	}
	if res.TotalWork != wall {
		t.Errorf("virtual total work %d != summed durations %d", res.TotalWork, wall)
	}
}

func TestUnitMakespan(t *testing.T) {
	m := mesh.Cube(0.02)
	s, err := New(context.Background(), m, Config{NumDomains: 4, Strategy: partition.SCOC})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.UnitMakespan(flusim.Cluster{NumProcs: 2, WorkersPerProc: 2}, flusim.Eager, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.Trace == nil {
		t.Error("degenerate unit makespan")
	}
	if res.TotalWork != s.TG.TotalWork() {
		t.Errorf("unit total work %d != graph work %d", res.TotalWork, s.TG.TotalWork())
	}
}

func TestTraceRecordedOnLastIteration(t *testing.T) {
	m := mesh.Cube(0.01)
	s, err := New(context.Background(), m, Config{NumDomains: 2, Strategy: partition.MCTL, Workers: 2, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil || len(rep.Trace.Spans) != s.TG.NumTasks() {
		t.Fatal("last-iteration trace missing or incomplete")
	}
}

// TestProductionStyleGain is the Figure 13 phenomenon end-to-end: measured-
// duration virtual makespans favour MC_TL over SC_OC. The mesh must be large
// enough that kernel time dominates per-task overhead (µs-sized tasks are
// critical-path-bound and penalise fine granularity — see EXPERIMENTS.md),
// hence the ~64k-cell mesh and minimum-duration measurement. The two
// strategies are measured in alternating rounds, so load from other processes
// (e.g. other test packages on a shared machine) hits both alike instead of
// whichever happened to run second, and the per-task minimum over all rounds
// filters it out.
func TestProductionStyleGain(t *testing.T) {
	m := mesh.Nozzle(0.01)
	cluster := flusim.Cluster{NumProcs: 6, WorkersPerProc: 4}
	strats := []partition.Strategy{partition.SCOC, partition.MCTL}
	solvers := make([]*Solver, len(strats))
	durs := make([][]time.Duration, len(strats))
	for i, strat := range strats {
		s, err := New(context.Background(), m, Config{NumDomains: 12, Strategy: strat, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		solvers[i] = s
	}
	const rounds = 4
	for r := 0; r < rounds; r++ {
		for i, s := range solvers {
			rep, err := s.Run(2)
			if err != nil {
				t.Fatal(err)
			}
			if durs[i] == nil {
				durs[i] = rep.Durations
				continue
			}
			for k, d := range rep.Durations {
				durs[i][k] = min(durs[i][k], d)
			}
		}
	}
	virtual := func(i int) int64 {
		res, err := solvers[i].VirtualMakespan(&Report{Durations: durs[i]}, cluster, flusim.Eager, false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	sc := virtual(0)
	mc := virtual(1)
	t.Logf("virtual makespans: SC_OC=%d MC_TL=%d ratio=%.2f", sc, mc, float64(sc)/float64(mc))
	if mc >= sc {
		t.Errorf("MC_TL virtual makespan %d not better than SC_OC %d", mc, sc)
	}
}

func TestEulerModelThroughRuntime(t *testing.T) {
	m := mesh.Cube(0.05)
	s, err := New(context.Background(), m, Config{
		NumDomains: 4, Strategy: partition.MCTL, Workers: 3,
		Policy: runtime.WorkStealing, Model: Euler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.EulerState == nil || s.State != nil {
		t.Fatal("Euler model did not select EulerState")
	}
	rep, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MassDriftRel > 1e-10 {
		t.Errorf("Euler mass drift %.3e", rep.MassDriftRel)
	}
	// Parallel Euler must match the serial reference.
	ref := fv.NewEulerState(s.Mesh, fv.EulerParams{})
	cx, cy, cz := hotCentroid(s.Mesh)
	ref.InitBlast(cx, cy, cz, 0.25, 2.0)
	ref.RunIteration()
	ref.RunIteration()
	for c := range ref.Rho {
		if ref.Rho[c] != s.EulerState.Rho[c] || ref.E[c] != s.EulerState.E[c] {
			t.Fatalf("cell %d: parallel Euler differs from serial (determinism broken)", c)
		}
	}
}

func TestModelString(t *testing.T) {
	if Scalar.String() != "scalar" || Euler.String() != "euler" {
		t.Error("model labels wrong")
	}
}
