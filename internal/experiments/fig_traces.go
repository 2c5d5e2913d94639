package experiments

import (
	"context"
	"fmt"
	"strings"

	"tempart/internal/core"
	"tempart/internal/flusim"
	"tempart/internal/fv"
	"tempart/internal/partition"
	"tempart/internal/runtime"
)

// fig5Cluster is the configuration shared by Figures 5, 12 and 13: 6 MPI
// processes of 4 cores each, PPRIME_NOZZLE partitioned into 12 domains.
var fig5Cluster = core.Cluster{NumProcs: 6, WorkersPerProc: 4}

const fig5Domains = 12

// Fig5Result compares the production-style execution (real kernels, measured
// durations replayed on the virtual cluster — the FLUSEPA analogue) against
// the pure FLUSIM simulation (unit costs) on identical parameters. The paper
// reports a ~20% makespan variance with identical scheduling patterns.
type Fig5Result struct {
	SolverMakespanNs int64 // measured-duration replay ("FLUSEPA")
	FlusimMakespan   int64 // unit-cost simulation ("FLUSIM"), in work units
	// VariancePct is |1 − flusim/solver| after normalising both to their
	// total work (the paper's ~20%).
	VariancePct  float64
	SolverGantt  string
	FlusimGantt  string
	MassDriftRel float64
	NumTasks     int
}

// Fig5 runs the comparison.
func Fig5(p Params) (*Fig5Result, error) {
	p = p.withDefaults()
	m, err := core.LoadMesh("PPRIME_NOZZLE", p.Scale)
	if err != nil {
		return nil, err
	}
	d, err := core.Decompose(context.Background(), m, fig5Domains, partition.SCOC, partition.Options{Seed: p.Seed})
	if err != nil {
		return nil, err
	}

	// FLUSEPA analogue: real kernels, measured durations, virtual cluster.
	// Three iterations: per-task minima filter out one-off timer noise.
	sv, err := d.NewSolver(1, runtime.Central, fv.DefaultParams())
	if err != nil {
		return nil, err
	}
	rep, err := sv.Run(3)
	if err != nil {
		return nil, err
	}
	real, err := sv.VirtualMakespan(rep, fig5Cluster, flusim.Eager, true)
	if err != nil {
		return nil, err
	}

	// FLUSIM: unit costs.
	sim, err := d.Simulate(flusim.Config{Cluster: fig5Cluster, RecordTrace: true})
	if err != nil {
		return nil, err
	}

	// Normalise: both makespans divided by their own total work give a
	// dimensionless "schedule stretch"; the variance between the two is the
	// model error FLUSIM makes against measured task durations.
	stretchReal := float64(real.Makespan) / float64(real.TotalWork)
	stretchSim := float64(sim.Makespan) / float64(sim.TotalWork)
	variance := 100 * abs(1-stretchSim/stretchReal)

	return &Fig5Result{
		SolverMakespanNs: real.Makespan,
		FlusimMakespan:   sim.Makespan,
		VariancePct:      variance,
		SolverGantt:      real.Trace.Gantt(p.GanttWidth),
		FlusimGantt:      sim.Trace.Gantt(p.GanttWidth),
		MassDriftRel:     rep.MassDriftRel,
		NumTasks:         sv.TG.NumTasks(),
	}, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// String renders both traces side by side.
func (r *Fig5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5 — FLUSEPA-analogue vs FLUSIM, PPRIME_NOZZLE, %d domains, %d procs × %d cores, SC_OC\n",
		fig5Domains, fig5Cluster.NumProcs, fig5Cluster.WorkersPerProc)
	fmt.Fprintf(&b, "tasks: %d   mass drift: %.2e\n", r.NumTasks, r.MassDriftRel)
	fmt.Fprintf(&b, "solver (measured durations) makespan: %d ns\n", r.SolverMakespanNs)
	fmt.Fprintf(&b, "flusim (unit costs) makespan:          %d units\n", r.FlusimMakespan)
	fmt.Fprintf(&b, "schedule-stretch variance: %.1f%% (paper: ~20%%)\n", r.VariancePct)
	fmt.Fprintf(&b, "\n-- solver trace (digits = subiteration) --\n%s", r.SolverGantt)
	fmt.Fprintf(&b, "\n-- flusim trace --\n%s", r.FlusimGantt)
	return b.String()
}

// Fig6Result demonstrates that idleness persists even with unbounded cores:
// the task graph's shape, not the scheduler, is the bottleneck.
type Fig6Result struct {
	NumProcs int
	Makespan int64
	// MeanActiveShare is the average over processes of (time with ≥1 busy
	// worker)/makespan; < 1 means structural idleness.
	MeanActiveShare float64
	// MinActiveShare is the worst process's share.
	MinActiveShare float64
	Gantt          string
}

// Fig6 simulates 64 processes (1 domain each) with unlimited cores per
// process on the CYLINDER mesh under SC_OC.
func Fig6(p Params) (*Fig6Result, error) {
	p = p.withDefaults()
	m, err := core.LoadMesh("CYLINDER", p.Scale)
	if err != nil {
		return nil, err
	}
	const procs = 64
	d, err := core.Decompose(context.Background(), m, procs, partition.SCOC, partition.Options{Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	sim, err := d.Simulate(flusim.Config{Cluster: core.Cluster{NumProcs: procs, WorkersPerProc: 0}, RecordTrace: true})
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{NumProcs: procs, Makespan: sim.Makespan, Gantt: sim.Trace.Gantt(p.GanttWidth)}
	iv := sim.Trace.ProcActiveIntervals()
	min := 1.0
	var sum float64
	for _, spans := range iv {
		var active int64
		for _, s := range spans {
			active += s[1] - s[0]
		}
		share := float64(active) / float64(sim.Makespan)
		sum += share
		if share < min {
			min = share
		}
	}
	res.MeanActiveShare = sum / float64(procs)
	res.MinActiveShare = min
	return res, nil
}

// String renders the unbounded-cores trace.
func (r *Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6 — FLUSIM, %d procs × unbounded cores, CYLINDER, SC_OC, 1 domain/proc\n", r.NumProcs)
	fmt.Fprintf(&b, "makespan: %d units\n", r.Makespan)
	fmt.Fprintf(&b, "mean active share: %.2f   min: %.2f  (idleness persists ⇒ not a scheduling problem)\n",
		r.MeanActiveShare, r.MinActiveShare)
	fmt.Fprintf(&b, "%s", r.Gantt)
	return b.String()
}

// Fig12Result is the FLUSIM SC_OC vs MC_TL comparison on PPRIME_NOZZLE.
type Fig12Result struct {
	SCOCMakespan int64
	MCTLMakespan int64
	GainPct      float64
	SCOCGantt    string
	MCTLGantt    string
}

// Fig12 runs FLUSIM with both strategies on the nozzle configuration.
func Fig12(p Params) (*Fig12Result, error) {
	p = p.withDefaults()
	m, err := core.LoadMesh("PPRIME_NOZZLE", p.Scale)
	if err != nil {
		return nil, err
	}
	r := &Fig12Result{}
	for _, strat := range []partition.Strategy{partition.SCOC, partition.MCTL} {
		d, err := core.Decompose(context.Background(), m, fig5Domains, strat, partition.Options{Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		sim, err := d.Simulate(flusim.Config{Cluster: fig5Cluster, RecordTrace: true})
		if err != nil {
			return nil, err
		}
		if strat == partition.SCOC {
			r.SCOCMakespan, r.SCOCGantt = sim.Makespan, sim.Trace.Gantt(p.GanttWidth)
		} else {
			r.MCTLMakespan, r.MCTLGantt = sim.Makespan, sim.Trace.Gantt(p.GanttWidth)
		}
	}
	r.GainPct = 100 * (1 - float64(r.MCTLMakespan)/float64(r.SCOCMakespan))
	return r, nil
}

// String renders the two traces.
func (r *Fig12Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12 — FLUSIM, PPRIME_NOZZLE, %d domains, %d procs × %d cores\n",
		fig5Domains, fig5Cluster.NumProcs, fig5Cluster.WorkersPerProc)
	fmt.Fprintf(&b, "SC_OC makespan: %d   MC_TL makespan: %d   gain: %.1f%% (paper: ~20%%)\n",
		r.SCOCMakespan, r.MCTLMakespan, r.GainPct)
	fmt.Fprintf(&b, "\n-- SC_OC --\n%s\n-- MC_TL --\n%s", r.SCOCGantt, r.MCTLGantt)
	return b.String()
}

// Fig13Result is the production validation: the full solver with real
// kernels, measured durations replayed on the virtual cluster, SC_OC vs
// MC_TL.
type Fig13Result struct {
	SCOCMakespanNs int64
	MCTLMakespanNs int64
	GainPct        float64
	SCOCGantt      string
	MCTLGantt      string
	MassDriftSCOC  float64
	MassDriftMCTL  float64
}

// Fig13 runs the production-style comparison.
func Fig13(p Params) (*Fig13Result, error) {
	p = p.withDefaults()
	m, err := core.LoadMesh("PPRIME_NOZZLE", p.Scale)
	if err != nil {
		return nil, err
	}
	r := &Fig13Result{}
	for _, strat := range []partition.Strategy{partition.SCOC, partition.MCTL} {
		d, err := core.Decompose(context.Background(), m, fig5Domains, strat, partition.Options{Seed: p.Seed})
		if err != nil {
			return nil, err
		}
		sv, err := d.NewSolver(1, runtime.Central, fv.DefaultParams())
		if err != nil {
			return nil, err
		}
		rep, err := sv.Run(3)
		if err != nil {
			return nil, err
		}
		virt, err := sv.VirtualMakespan(rep, fig5Cluster, flusim.Eager, true)
		if err != nil {
			return nil, err
		}
		if strat == partition.SCOC {
			r.SCOCMakespanNs, r.SCOCGantt, r.MassDriftSCOC = virt.Makespan, virt.Trace.Gantt(p.GanttWidth), rep.MassDriftRel
		} else {
			r.MCTLMakespanNs, r.MCTLGantt, r.MassDriftMCTL = virt.Makespan, virt.Trace.Gantt(p.GanttWidth), rep.MassDriftRel
		}
	}
	r.GainPct = 100 * (1 - float64(r.MCTLMakespanNs)/float64(r.SCOCMakespanNs))
	return r, nil
}

// String renders the production comparison.
func (r *Fig13Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 13 — production-style solver (real kernels, measured durations), PPRIME_NOZZLE, %d domains, %d procs × %d cores\n",
		fig5Domains, fig5Cluster.NumProcs, fig5Cluster.WorkersPerProc)
	fmt.Fprintf(&b, "SC_OC makespan: %d ns   MC_TL makespan: %d ns   gain: %.1f%% (paper: ~20%%)\n",
		r.SCOCMakespanNs, r.MCTLMakespanNs, r.GainPct)
	fmt.Fprintf(&b, "mass drift: SC_OC %.2e, MC_TL %.2e\n", r.MassDriftSCOC, r.MassDriftMCTL)
	fmt.Fprintf(&b, "\n-- SC_OC --\n%s\n-- MC_TL --\n%s", r.SCOCGantt, r.MCTLGantt)
	return b.String()
}
