// Command flusim emulates one FLUSEPA iteration: it partitions a mesh,
// generates the task graph, schedules it on a configurable virtual cluster
// and prints the makespan, quality metrics and an ASCII Gantt trace — the
// reproduction of the paper's FLUSIM submodule as a standalone tool.
//
// Example:
//
//	flusim -mesh CYLINDER -scale 0.01 -domains 128 -procs 16 -workers 32 \
//	       -strategy MC_TL -gantt
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"tempart/internal/core"
	"tempart/internal/flusim"
	"tempart/internal/metrics"
	"tempart/internal/obs"
	"tempart/internal/partition"
)

func main() {
	var (
		meshName = flag.String("mesh", "CYLINDER", "mesh: CYLINDER, CUBE or PPRIME_NOZZLE")
		scale    = flag.Float64("scale", 0.01, "mesh scale relative to the paper's cell counts")
		domains  = flag.Int("domains", 128, "number of domains (task granularity)")
		procs    = flag.Int("procs", 16, "number of emulated MPI processes")
		workers  = flag.Int("workers", 32, "cores per process (0 = unbounded)")
		strategy = flag.String("strategy", "MC_TL", "partitioning strategy: SC_OC, MC_TL, UNIT, GEOM_RCB")
		sched    = flag.String("sched", "eager", "scheduling strategy: eager, lifo, cpf, random")
		seed     = flag.Int64("seed", 1, "random seed")
		gantt    = flag.Bool("gantt", false, "print the execution trace")
		width    = flag.Int("width", 96, "Gantt width in characters")
		commLat  = flag.Int64("comm-latency", 0, "virtual time units charged per cross-process dependency edge")
		jsonOut  = flag.String("trace-json", "", "write the trace in Chrome trace-event format to this file")
		csvOut   = flag.String("trace-csv", "", "write the trace as CSV to this file")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("flusim"))
		return
	}

	strat, err := partition.ParseStrategy(*strategy)
	check(err)
	schedStrat, err := flusim.ParseStrategy(*sched)
	check(err)

	m, err := core.LoadMesh(*meshName, *scale)
	check(err)
	fmt.Printf("mesh %s: %d cells, %d faces, %d temporal levels\n",
		m.Name, m.NumCells(), m.NumFaces(), m.Scheme().NumLevels())

	d, err := core.Decompose(context.Background(), m, *domains, strat, partition.Options{Seed: *seed})
	check(err)
	fmt.Printf("partition %s into %d domains: edge cut %d, max imbalance %.3f, level imbalance %v\n",
		strat, *domains, d.Result.EdgeCut, d.Result.MaxImbalance(), fmtFloats(d.Quality.LevelImbalance))

	wantTrace := *gantt || *jsonOut != "" || *csvOut != ""
	sim, err := d.Simulate(flusim.Config{
		Cluster:     flusim.Cluster{NumProcs: *procs, WorkersPerProc: *workers},
		Strategy:    schedStrat,
		Seed:        *seed,
		RecordTrace: wantTrace,
		CommLatency: *commLat,
	})
	check(err)
	st := metrics.ComputeTaskStats(sim.Graph)
	fmt.Printf("task graph: %d tasks, %d deps, total work %d, critical path %d, first-phase domains %d\n",
		st.NumTasks, st.NumDeps, st.TotalWork, st.CriticalPath, st.FirstPhaseDomains)

	fmt.Printf("cluster %d procs × %d cores, %s scheduling\n", *procs, *workers, schedStrat)
	fmt.Printf("makespan: %d units (critical path %d, work bound %d)\n",
		sim.Makespan, sim.CriticalPath, workBound(sim.TotalWork, *procs, *workers))
	fmt.Printf("comm volume: %d cut task edges; efficiency %.2f\n", sim.CommVolume, sim.Efficiency)
	if *gantt && sim.Trace != nil {
		fmt.Printf("\ntrace (digits = subiteration):\n%s", sim.Trace.Gantt(*width))
	}
	if *jsonOut != "" && sim.Trace != nil {
		check(writeFile(*jsonOut, sim.Trace.WriteChromeTrace))
		fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing)\n", *jsonOut)
	}
	if *csvOut != "" && sim.Trace != nil {
		check(writeFile(*csvOut, sim.Trace.WriteCSV))
		fmt.Printf("wrote CSV trace to %s\n", *csvOut)
	}
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func workBound(work int64, procs, workers int) int64 {
	if workers <= 0 {
		return 0
	}
	return work / (int64(procs) * int64(workers))
}

func fmtFloats(v []float64) string {
	out := "["
	for i, x := range v {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", x)
	}
	return out + "]"
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "flusim:", err)
		os.Exit(1)
	}
}
