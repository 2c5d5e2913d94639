package experiments

import (
	"context"
	"fmt"
	"strings"

	"tempart/internal/core"
	"tempart/internal/flusim"
	"tempart/internal/partition"
)

// fig9Cluster is the Figures 9/11 configuration: 16 processes of 32 cores.
var fig9Cluster = core.Cluster{NumProcs: 16, WorkersPerProc: 32}

// Fig9Result compares SC_OC and MC_TL at 128 domains on CYLINDER and CUBE,
// where the paper reports a ~2× acceleration.
type Fig9Result struct {
	Rows []Fig9Row
}

// Fig9Row is one mesh's comparison.
type Fig9Row struct {
	Mesh         string
	SCOCMakespan int64
	MCTLMakespan int64
	Ratio        float64
	SCOCGantt    string
	MCTLGantt    string
}

// Fig9 runs the 128-domain comparison.
func Fig9(p Params) (*Fig9Result, error) {
	p = p.withDefaults()
	const domains = 128
	res := &Fig9Result{}
	for _, spec := range []struct {
		name  string
		scale float64
	}{{"CYLINDER", p.Scale}, {"CUBE", p.CubeScale}} {
		m, err := core.LoadMesh(spec.name, spec.scale)
		if err != nil {
			return nil, err
		}
		row := Fig9Row{Mesh: spec.name}
		for _, strat := range []partition.Strategy{partition.SCOC, partition.MCTL} {
			d, err := core.Decompose(context.Background(), m, domains, strat, partition.Options{Seed: p.Seed})
			if err != nil {
				return nil, err
			}
			sim, err := d.Simulate(flusim.Config{Cluster: fig9Cluster, RecordTrace: true})
			if err != nil {
				return nil, err
			}
			if strat == partition.SCOC {
				row.SCOCMakespan, row.SCOCGantt = sim.Makespan, sim.Trace.Gantt(p.GanttWidth)
			} else {
				row.MCTLMakespan, row.MCTLGantt = sim.Makespan, sim.Trace.Gantt(p.GanttWidth)
			}
		}
		row.Ratio = float64(row.SCOCMakespan) / float64(row.MCTLMakespan)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders makespans and traces.
func (r *Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9 — FLUSIM, 128 domains, %d procs × %d cores (paper: ~2× acceleration)\n",
		fig9Cluster.NumProcs, fig9Cluster.WorkersPerProc)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n%s: SC_OC=%d  MC_TL=%d  speedup=%.2f×\n", row.Mesh, row.SCOCMakespan, row.MCTLMakespan, row.Ratio)
		fmt.Fprintf(&b, "-- SC_OC --\n%s-- MC_TL --\n%s", row.SCOCGantt, row.MCTLGantt)
	}
	return b.String()
}

// Fig11Result sweeps the domain count: performance ratio MC_TL/SC_OC (a) and
// communication volumes (b).
type Fig11Result struct {
	Cluster core.Cluster
	Rows    []Fig11Row
}

// Fig11Row is one (mesh, domain count) sample.
type Fig11Row struct {
	Mesh         string
	Domains      int
	SCOCMakespan int64
	MCTLMakespan int64
	// SpeedupRatio is SC_OC/MC_TL makespan (>1 means MC_TL wins).
	SpeedupRatio float64
	SCOCCommVol  int64
	MCTLCommVol  int64
}

// Fig11DomainCounts is the sweep grid. The head (few domains) shows MC_TL's
// ratio building up as granularity allows it to exploit its balance; the
// tail shows the paper's observation that finer granularity lets SC_OC
// pipeline around its imbalance, shrinking the ratio again.
var Fig11DomainCounts = []int{16, 32, 64, 128, 256, 512}

// Fig11 runs the sweep on CYLINDER and CUBE.
func Fig11(p Params) (*Fig11Result, error) {
	p = p.withDefaults()
	res := &Fig11Result{Cluster: fig9Cluster}
	for _, spec := range []struct {
		name  string
		scale float64
	}{{"CYLINDER", p.Scale}, {"CUBE", p.CubeScale}} {
		m, err := core.LoadMesh(spec.name, spec.scale)
		if err != nil {
			return nil, err
		}
		for _, domains := range Fig11DomainCounts {
			row := Fig11Row{Mesh: spec.name, Domains: domains}
			for _, strat := range []partition.Strategy{partition.SCOC, partition.MCTL} {
				d, err := core.Decompose(context.Background(), m, domains, strat, partition.Options{Seed: p.Seed})
				if err != nil {
					return nil, err
				}
				sim, err := d.Simulate(flusim.Config{Cluster: fig9Cluster})
				if err != nil {
					return nil, err
				}
				if strat == partition.SCOC {
					row.SCOCMakespan, row.SCOCCommVol = sim.Makespan, sim.CommVolume
				} else {
					row.MCTLMakespan, row.MCTLCommVol = sim.Makespan, sim.CommVolume
				}
			}
			row.SpeedupRatio = float64(row.SCOCMakespan) / float64(row.MCTLMakespan)
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// String renders the sweep table.
func (r *Fig11Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 11 — domain-count sweep, %d procs × %d cores\n", r.Cluster.NumProcs, r.Cluster.WorkersPerProc)
	fmt.Fprintf(&b, "%-10s %8s %12s %12s %9s %12s %12s\n",
		"mesh", "domains", "SC_OC span", "MC_TL span", "ratio", "SC_OC comm", "MC_TL comm")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %8d %12d %12d %8.2fx %12d %12d\n",
			row.Mesh, row.Domains, row.SCOCMakespan, row.MCTLMakespan, row.SpeedupRatio,
			row.SCOCCommVol, row.MCTLCommVol)
	}
	b.WriteString("(paper: ratio > 1 everywhere, decreasing with domain count; MC_TL comm volume above SC_OC)\n")
	return b.String()
}
