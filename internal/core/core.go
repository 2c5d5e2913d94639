// Package core is the public face of the library: a high-level API that
// wires meshes, partitioning strategies, task-graph generation, simulation
// and the task-distributed solver into a few calls. Examples and command-
// line tools consume this package; the specialised packages underneath
// remain usable directly for fine-grained control.
//
// The typical flow mirrors the paper's Figure 2:
//
//	m := core.LoadMesh("CYLINDER", 0.01)          // mesh + temporal levels
//	d, _ := core.Decompose(ctx, m, 128, partition.MCTL, partition.Options{})
//	sim, _ := d.Simulate(core.Cluster{NumProcs: 16, WorkersPerProc: 32})
//	fmt.Println(sim.Makespan, d.Quality.LevelImbalance)
package core

import (
	"context"
	"fmt"

	"tempart/internal/flusim"
	"tempart/internal/fv"
	"tempart/internal/mesh"
	"tempart/internal/metrics"
	"tempart/internal/partition"
	"tempart/internal/runtime"
	"tempart/internal/solver"
	"tempart/internal/taskgraph"
)

// Cluster re-exports the simulator's cluster shape.
type Cluster = flusim.Cluster

// LoadMesh generates one of the paper's synthetic meshes ("CYLINDER",
// "CUBE", "PPRIME_NOZZLE") at the given scale (1.0 = the paper's full cell
// counts).
func LoadMesh(name string, scale float64) (*mesh.Mesh, error) {
	return mesh.ByName(name, scale)
}

// Decomposition bundles a partitioned mesh with its quality metrics and a
// lazily built task graph.
type Decomposition struct {
	Mesh     *mesh.Mesh
	Strategy partition.Strategy
	Result   *partition.Result
	Quality  metrics.PartitionQuality

	tg *taskgraph.TaskGraph
}

// Decompose partitions the mesh into k domains under the given strategy and
// evaluates partition quality. Cancelling ctx aborts the partitioning at the
// next trial/coarsening/refinement boundary and returns the context error —
// this is what lets tempartd stop runaway jobs when a client disconnects.
func Decompose(ctx context.Context, m *mesh.Mesh, k int, strat partition.Strategy, opt partition.Options) (*Decomposition, error) {
	res, err := partition.PartitionMesh(ctx, m, k, strat, opt)
	if err != nil {
		return nil, err
	}
	return &Decomposition{
		Mesh:     m,
		Strategy: strat,
		Result:   res,
		Quality:  metrics.EvaluatePartition(m, res, strat.String()),
	}, nil
}

// TaskGraph returns the decomposition's one-iteration task DAG (built on
// first use, cached).
func (d *Decomposition) TaskGraph() (*taskgraph.TaskGraph, error) {
	if d.tg == nil {
		tg, err := taskgraph.Build(d.Mesh, d.Result.Part, d.Result.NumParts, taskgraph.Options{})
		if err != nil {
			return nil, err
		}
		d.tg = tg
	}
	return d.tg, nil
}

// SimulationReport is the outcome of a FLUSIM run over a decomposition.
type SimulationReport struct {
	*flusim.Result
	// CommVolume is the estimated inter-process communication (cut
	// task-graph edges).
	CommVolume int64
	// Efficiency is TotalWork / (Makespan · cores); 1.0 is a perfectly
	// packed schedule. Zero when the cluster is unbounded.
	Efficiency float64
}

// Simulate schedules the decomposition's task graph on a cluster with the
// eager strategy and a block domain→process map, recording the trace.
func (d *Decomposition) Simulate(cluster Cluster) (*SimulationReport, error) {
	return d.SimulateWith(cluster, flusim.Eager, true)
}

// SimulateWith exposes the scheduling strategy and trace switch.
func (d *Decomposition) SimulateWith(cluster Cluster, strat flusim.Strategy, recordTrace bool) (*SimulationReport, error) {
	tg, err := d.TaskGraph()
	if err != nil {
		return nil, err
	}
	procOf := flusim.BlockMap(d.Result.NumParts, cluster.NumProcs)
	res, err := flusim.Simulate(tg, procOf, flusim.Config{
		Cluster: cluster, Strategy: strat, RecordTrace: recordTrace,
	})
	if err != nil {
		return nil, err
	}
	rep := &SimulationReport{
		Result:     res,
		CommVolume: metrics.CommVolume(tg, procOf),
	}
	if !cluster.Unbounded() && res.Makespan > 0 {
		cores := int64(cluster.NumProcs) * int64(cluster.WorkersPerProc)
		rep.Efficiency = float64(res.TotalWork) / (float64(res.Makespan) * float64(cores))
	}
	return rep, nil
}

// NewSolver builds the task-distributed FV solver over this exact
// decomposition (the partition is reused, not recomputed).
func (d *Decomposition) NewSolver(workers int, policy runtime.Policy, params fv.Params) (*solver.Solver, error) {
	return solver.NewFromPartition(d.Mesh, d.Result, solver.Config{
		Strategy: d.Strategy,
		Workers:  workers,
		Policy:   policy,
		FV:       params,
	})
}

// StrategyOutcome is one row of a strategy comparison.
type StrategyOutcome struct {
	Strategy       partition.Strategy
	Makespan       int64
	Speedup        float64 // vs the first strategy in the comparison
	EdgeCut        int64
	CommVolume     int64
	Efficiency     float64
	LevelImbalance []float64
	MaxFragments   int
	NumTasks       int
}

// CompareConfig parameterises Compare.
type CompareConfig struct {
	NumDomains int
	Cluster    Cluster
	Strategies []partition.Strategy
	Seed       int64
	Scheduler  flusim.Strategy
}

// Compare runs the same mesh through several partitioning strategies and
// simulates each on the same cluster — the experiment pattern behind the
// paper's Figures 9, 11 and 12.
func Compare(ctx context.Context, m *mesh.Mesh, cfg CompareConfig) ([]StrategyOutcome, error) {
	if len(cfg.Strategies) == 0 {
		cfg.Strategies = []partition.Strategy{partition.SCOC, partition.MCTL}
	}
	var out []StrategyOutcome
	var base int64
	for i, strat := range cfg.Strategies {
		d, err := Decompose(ctx, m, cfg.NumDomains, strat, partition.Options{Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("core: %v: %w", strat, err)
		}
		sim, err := d.SimulateWith(cfg.Cluster, cfg.Scheduler, false)
		if err != nil {
			return nil, fmt.Errorf("core: %v: %w", strat, err)
		}
		tg, err := d.TaskGraph()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = sim.Makespan
		}
		out = append(out, StrategyOutcome{
			Strategy:       strat,
			Makespan:       sim.Makespan,
			Speedup:        float64(base) / float64(sim.Makespan),
			EdgeCut:        d.Result.EdgeCut,
			CommVolume:     sim.CommVolume,
			Efficiency:     sim.Efficiency,
			LevelImbalance: d.Quality.LevelImbalance,
			MaxFragments:   d.Quality.MaxFragments(),
			NumTasks:       tg.NumTasks(),
		})
	}
	return out, nil
}
