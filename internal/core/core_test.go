package core

import (
	"context"
	"testing"

	"tempart/internal/flusim"
	"tempart/internal/fv"
	"tempart/internal/partition"
	"tempart/internal/runtime"
)

func TestLoadMesh(t *testing.T) {
	m, err := LoadMesh("CUBE", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCells() == 0 {
		t.Fatal("empty mesh")
	}
	if _, err := LoadMesh("nope", 1); err == nil {
		t.Fatal("accepted unknown mesh")
	}
}

func TestDecomposeAndSimulate(t *testing.T) {
	m, _ := LoadMesh("CUBE", 0.05)
	d, err := Decompose(context.Background(), m, 8, partition.MCTL, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Quality.NumDomains != 8 {
		t.Errorf("quality domains = %d", d.Quality.NumDomains)
	}
	sim, err := d.Simulate(flusim.Config{Cluster: Cluster{NumProcs: 4, WorkersPerProc: 2}, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Makespan <= 0 || sim.Trace == nil {
		t.Error("degenerate simulation")
	}
	if sim.Efficiency <= 0 || sim.Efficiency > 1 {
		t.Errorf("efficiency = %v, want (0,1]", sim.Efficiency)
	}
	if sim.CommVolume < 0 {
		t.Error("negative comm volume")
	}
}

func TestCompareDefaults(t *testing.T) {
	m, _ := LoadMesh("CYLINDER", 0.001)
	rows, err := Compare(context.Background(), m, CompareConfig{
		NumDomains: 8,
		Cluster:    Cluster{NumProcs: 4, WorkersPerProc: 4},
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want default [SC_OC MC_TL]", len(rows))
	}
	if rows[0].Strategy != partition.SCOC || rows[1].Strategy != partition.MCTL {
		t.Error("default strategy order wrong")
	}
	if rows[0].Speedup != 1.0 {
		t.Errorf("baseline speedup = %v, want 1", rows[0].Speedup)
	}
	if rows[1].Speedup <= 1.0 {
		t.Errorf("MC_TL speedup = %.2f, want > 1", rows[1].Speedup)
	}
	if rows[1].CommVolume <= rows[0].CommVolume {
		t.Errorf("MC_TL comm volume %d not above SC_OC %d", rows[1].CommVolume, rows[0].CommVolume)
	}
}

func TestNewSolverThroughDecomposition(t *testing.T) {
	m, _ := LoadMesh("CUBE", 0.02)
	d, err := Decompose(context.Background(), m, 4, partition.MCTL, partition.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.NewSolver(2, runtime.WorkStealing, fv.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MassDriftRel > 1e-10 {
		t.Errorf("mass drift %.3e", rep.MassDriftRel)
	}
}

func TestCompareAllStrategies(t *testing.T) {
	m, _ := LoadMesh("CUBE", 0.1)
	rows, err := Compare(context.Background(), m, CompareConfig{
		NumDomains: 16,
		Cluster:    Cluster{NumProcs: 4, WorkersPerProc: 8},
		Strategies: []partition.Strategy{
			partition.SCOC, partition.MCTL, partition.UnitCells,
			partition.GeomRCB, partition.SFC,
		},
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// MC_TL must have the best makespan of the five.
	best := rows[0].Makespan
	for _, r := range rows {
		if r.Makespan < best {
			best = r.Makespan
		}
	}
	if rows[1].Strategy != partition.MCTL || rows[1].Makespan != best {
		t.Errorf("MC_TL not the best strategy: %+v", rows)
	}
}
