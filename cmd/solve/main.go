// Command solve runs the complete task-distributed finite-volume solver —
// the FLUSEPA analogue — end to end: generate (or load) a mesh, partition it
// with the chosen strategy, build the task graph, execute real kernels on a
// worker pool for N iterations, and report wall times, conservation, and the
// virtual-cluster makespan obtained by replaying measured task durations.
//
// Examples:
//
//	solve -mesh PPRIME_NOZZLE -scale 0.01 -strategy MC_TL -iters 3
//	solve -mesh CUBE -scale 0.2 -model euler -workers 4 -gantt
//	solve -in saved.tmsh -domains 24 -procs 8 -cores 4
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/obs"
	"tempart/internal/partition"
	"tempart/internal/runtime"
	"tempart/internal/solver"
)

func main() {
	var (
		meshName = flag.String("mesh", "PPRIME_NOZZLE", "mesh: CYLINDER, CUBE or PPRIME_NOZZLE")
		scale    = flag.Float64("scale", 0.01, "mesh scale relative to the paper's cell counts")
		inFile   = flag.String("in", "", "load a mesh file instead of generating")
		strategy = flag.String("strategy", "MC_TL", "partitioning strategy: SC_OC, MC_TL, UNIT, GEOM_RCB, SFC")
		domains  = flag.Int("domains", 12, "number of domains")
		model    = flag.String("model", "scalar", "physics model: scalar or euler")
		iters    = flag.Int("iters", 3, "iterations to run")
		workers  = flag.Int("workers", 1, "worker goroutines")
		policy   = flag.String("policy", "worksteal", "runtime policy: central, worksteal, domainlocal")
		procs    = flag.Int("procs", 6, "virtual cluster processes for the replay")
		cores    = flag.Int("cores", 4, "virtual cores per process for the replay")
		gantt    = flag.Bool("gantt", false, "print the virtual-cluster Gantt trace")
		width    = flag.Int("width", 96, "Gantt width")
		seed     = flag.Int64("seed", 1, "random seed")
		reportTo = flag.String("report", "", "write a JSON run manifest (inputs, build, per-phase timings, outcome) to this file")
		pipeTo   = flag.String("pipeline-trace", "", "write the instrumented pipeline spans as a Chrome trace (open in Perfetto) to this file")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("solve"))
		return
	}
	var rec *obs.Recorder
	if *reportTo != "" || *pipeTo != "" {
		rec = obs.NewRecorder()
	}
	ctx := obs.WithRecorder(context.Background(), rec)

	var m *mesh.Mesh
	var err error
	if *inFile != "" {
		m, err = mesh.Load(*inFile)
	} else {
		m, err = mesh.ByName(*meshName, *scale)
	}
	check(err)

	strat, err := partition.ParseStrategy(*strategy)
	check(err)
	mdl := solver.Scalar
	if *model == "euler" {
		mdl = solver.Euler
	} else if *model != "scalar" {
		check(fmt.Errorf("unknown model %q", *model))
	}
	pol, ok := map[string]runtime.Policy{
		"central": runtime.Central, "worksteal": runtime.WorkStealing, "domainlocal": runtime.DomainLocal,
	}[*policy]
	if !ok {
		check(fmt.Errorf("unknown policy %q (want central, worksteal or domainlocal)", *policy))
	}

	fmt.Printf("mesh %s: %d cells, census %v\n", m.Name, m.NumCells(), m.Census())
	t0 := time.Now()
	sv, err := solver.New(ctx, m, solver.Config{
		NumDomains: *domains,
		Strategy:   strat,
		PartOpts:   partition.Options{Seed: *seed},
		Workers:    *workers,
		Policy:     pol,
		Model:      mdl,
	})
	check(err)
	fmt.Printf("pipeline built in %v: %s partition (cut %d), %d tasks/iteration, model %v\n",
		time.Since(t0).Round(time.Millisecond), strat, sv.Partition.EdgeCut, sv.TG.NumTasks(), mdl)

	rep, err := sv.RunContext(ctx, *iters)
	check(err)
	for i, w := range rep.WallPerIteration {
		fmt.Printf("iteration %d: %v\n", i, w.Round(time.Microsecond))
	}
	fmt.Printf("mass drift after %d iterations: %.2e\n", *iters, rep.MassDriftRel)

	cluster := flusim.Cluster{NumProcs: *procs, WorkersPerProc: *cores}
	virt, err := sv.VirtualMakespan(rep, cluster, flusim.Eager, *gantt)
	check(err)
	fmt.Printf("virtual cluster %d×%d: makespan %v (critical path %v)\n",
		*procs, *cores, time.Duration(virt.Makespan), time.Duration(virt.CriticalPath))
	if *gantt && virt.Trace != nil {
		fmt.Printf("\ntrace (digits = subiteration):\n%s", virt.Trace.Gantt(*width))
	}

	if *pipeTo != "" {
		writeFile(*pipeTo, rec.WriteChromeTrace)
		fmt.Fprintf(os.Stderr, "solve: pipeline trace written to %s (open in Perfetto)\n", *pipeTo)
	}
	if *reportTo != "" {
		man := obs.NewManifest("solve")
		man.Inputs["mesh"] = m.Name
		man.Inputs["cells"] = m.NumCells()
		man.Inputs["scale"] = *scale
		man.Inputs["in"] = *inFile
		man.Inputs["strategy"] = strat.String()
		man.Inputs["domains"] = *domains
		man.Inputs["model"] = *model
		man.Inputs["iters"] = *iters
		man.Inputs["workers"] = *workers
		man.Inputs["policy"] = *policy
		man.Inputs["procs"] = *procs
		man.Inputs["cores"] = *cores
		man.Inputs["seed"] = *seed
		man.Metrics["edge_cut"] = float64(sv.Partition.EdgeCut)
		man.Metrics["tasks_per_iteration"] = float64(sv.TG.NumTasks())
		man.Metrics["mass_drift_rel"] = rep.MassDriftRel
		man.Metrics["virtual_makespan"] = float64(virt.Makespan)
		man.Metrics["virtual_critical_path"] = float64(virt.CriticalPath)
		man.Metrics["repart_events"] = float64(len(rep.Repartitions))
		man.Finish(rec)
		writeFile(*reportTo, man.WriteJSON)
		fmt.Fprintf(os.Stderr, "solve: run manifest written to %s\n", *reportTo)
	}
}

// writeFile streams one of the JSON emitters into path.
func writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	check(err)
	check(write(f))
	check(f.Close())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "solve:", err)
		os.Exit(1)
	}
}
