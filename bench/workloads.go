package main

import (
	"math"

	"tempart/internal/flusim"
)

// workload is one input to the whole system: a mesh family, a domain count, a
// simulated cluster and a traffic mix. Every workload runs all four lanes,
// because every run prints every metric; what makes it single-purpose is
// that exactly one lane runs at full size — the one README.md names as the
// home of its metrics — and the other three run their small fixed probe.
type workload struct {
	Name string
	Why  string
	// Home names the lane that runs at full size and takes the run's seed.
	// The probes always replay seed 0: a probe exists so that every run
	// prints every metric, and an input that changed from run to run would
	// only add its own spread to the machine's.
	Home       string
	Partition  partitionCfg
	Downstream downstreamCfg
	Repart     repartCfg
	Serve      serveCfg
}

// The probes: each lane on an input small enough to take a second or two,
// repeated often enough (>= 30 timed calls, >= 1000 requests) that its
// medians hold still.
var (
	probeDownstream = downstreamCfg{Mesh: "PPRIME_NOZZLE", Scale: 0.0005, Ks: []int{12, 192},
		Cluster: flusim.Cluster{NumProcs: 6, WorkersPerProc: 4}, EvalRounds: 60, SolverIters: 500}
	probeRepart = repartCfg{Mesh: "CYLINDER", Scale: 0.001, K: 16,
		Cluster: flusim.Cluster{NumProcs: 4, WorkersPerProc: 4}, Epochs: 6, Step: 0.03, Drifts: 6}
	// Two misses in a hundred put the probe's p99 at the median of its compute path.
	probeServe = serveCfg{Mesh: "CUBE", Scale: 0.02, K: 8, Hot: 16, PerCaller: 1000, MissPermille: 20, InProcess: true}
)

// refSeconds is BENCHMARK.json's run_seconds: the counts below are what this
// sandbox (2 cores) measures in about that long. --seconds scales them
// linearly, so run length is a fixed operation count on both sides of a
// comparison and never a deadline.
const refSeconds = 18

var workloads = []workload{
	{
		Name: "offline_cylinder", Home: "partition",
		Why: "partition does all the work: MC_TL k=128 on the CYLINDER mesh for a 16x32 cluster (paper Fig 9); coarsen/initial/refine changes show here",
		Partition: partitionCfg{Mesh: "CYLINDER", Scale: 0.003, K: 128,
			Cluster: flusim.Cluster{NumProcs: 16, WorkersPerProc: 32}, Rounds: 30, GainSeeds: 10},
		Downstream: probeDownstream, Repart: probeRepart, Serve: probeServe,
	},
	{
		Name: "downstream_nozzle", Home: "downstream",
		Why: "everything after the partition: task-graph build, FLUSIM and the Euler solver on PPRIME_NOZZLE partitions, 6x4 cluster (Figs 5/12/13); a partitioner speed-up must leave it unmoved",
		Partition: partitionCfg{Mesh: "PPRIME_NOZZLE", Scale: 0.0005, K: 12,
			Cluster: flusim.Cluster{NumProcs: 6, WorkersPerProc: 4}, Rounds: 30, GainSeeds: 8},
		Downstream: downstreamCfg{Mesh: "PPRIME_NOZZLE", Scale: 0.005, Ks: []int{12, 192},
			Cluster: flusim.Cluster{NumProcs: 6, WorkersPerProc: 4}, EvalRounds: 80, SolverIters: 600},
		Repart: probeRepart, Serve: probeServe,
	},
	{
		Name: "repart_drift_cylinder", Home: "repart",
		Why: "the partitioner used differently: warm starts under a migration penalty while a hotspot drifts across CYLINDER, k=64; shows refinement changes that help cold runs but hurt biased ones",
		Partition: partitionCfg{Mesh: "CYLINDER", Scale: 0.001, K: 16,
			Cluster: flusim.Cluster{NumProcs: 16, WorkersPerProc: 8}, Rounds: 30, GainSeeds: 8},
		Downstream: probeDownstream,
		Repart: repartCfg{Mesh: "CYLINDER", Scale: 0.0025, K: 64,
			Cluster: flusim.Cluster{NumProcs: 16, WorkersPerProc: 8}, Epochs: 6, Step: 0.03, Drifts: 8},
		Serve: probeServe,
	},
	{
		Name: "serve_mixed", Home: "serve",
		Why: "the daemon: two closed-loop callers, 96% Zipf repeats over a hot set larger than the memory cache and 4% never-seen keys (compute + durable commit) on small CUBE meshes",
		Partition: partitionCfg{Mesh: "CUBE", Scale: 0.05, K: 16,
			Cluster: flusim.Cluster{NumProcs: 4, WorkersPerProc: 4}, Rounds: 30, GainSeeds: 8},
		Downstream: probeDownstream, Repart: probeRepart,
		Serve: serveCfg{Mesh: "CUBE", Scale: 0.05, K: 16, Hot: 32, PerCaller: 3000, MissPermille: 40},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// floors are the smallest operation counts a lane may be scaled down to.
type floors struct{ calls, evalRounds, solverIters, drifts, perCaller int }

var (
	// gated keeps every timed end-to-end metric at >= 30 timed calls or
	// >= 1000 requests however short --seconds is.
	gated = floors{calls: 30, evalRounds: 30, solverIters: 100, drifts: 5, perCaller: 500}
	// loose serves the traced run, whose numbers carry no bound.
	loose = floors{calls: 5, evalRounds: 5, solverIters: 30, drifts: 2, perCaller: 250}
)

func scaleCount(n int, factor float64, floor int) int {
	return int(math.Max(float64(floor), math.Round(float64(n)*factor)))
}

// scaled multiplies every operation count by factor, not below fl.
func (w workload) scaled(factor float64, fl floors) workload {
	w.Partition.Rounds = scaleCount(w.Partition.Rounds, factor, fl.calls)
	w.Downstream.EvalRounds = scaleCount(w.Downstream.EvalRounds, factor, fl.evalRounds)
	w.Downstream.SolverIters = scaleCount(w.Downstream.SolverIters, factor, fl.solverIters)
	w.Repart.Drifts = scaleCount(w.Repart.Drifts, factor, fl.drifts)
	w.Serve.PerCaller = scaleCount(w.Serve.PerCaller, factor, fl.perCaller)
	return w
}

// short shrinks the workload to a smoke test: the same code paths on meshes
// of a few hundred cells, a handful of calls each. Its numbers mean nothing;
// the tests use it to check names, gates and determinism in seconds.
func (w workload) short() workload {
	w.Partition = partitionCfg{Mesh: "CUBE", Scale: 0.01, K: 4,
		Cluster: flusim.Cluster{NumProcs: 2, WorkersPerProc: 2}, Rounds: 2, GainSeeds: 1}
	w.Downstream = downstreamCfg{Mesh: "PPRIME_NOZZLE", Scale: 0.0001, Ks: []int{4, 8},
		Cluster: flusim.Cluster{NumProcs: 2, WorkersPerProc: 2}, EvalRounds: 2, SolverIters: 5}
	w.Repart = repartCfg{Mesh: "CYLINDER", Scale: 0.0002, K: 4,
		Cluster: flusim.Cluster{NumProcs: 2, WorkersPerProc: 2}, Epochs: 3, Step: 0.03, Drifts: 2}
	w.Serve = serveCfg{Mesh: "CUBE", Scale: 0.01, K: 4, Hot: 4, PerCaller: 100, MissPermille: 40, InProcess: w.Serve.InProcess}
	return w
}

func (w workload) lanes() []lane {
	return []lane{
		&partitionLane{cfg: w.Partition},
		&downstreamLane{cfg: w.Downstream},
		&repartLane{cfg: w.Repart},
		&serveLane{cfg: w.Serve},
	}
}
