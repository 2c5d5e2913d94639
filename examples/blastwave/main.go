// Blastwave: a launcher-take-off-style blast simulation with the
// compressible Euler model — the paper's other motivating application
// ("blast wave propagation during rocket take-off") — executed through the
// task runtime with an MC_TL decomposition, with trace export for
// chrome://tracing.
//
//	go run ./examples/blastwave
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"tempart/internal/flusim"
	"tempart/internal/fv"
	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/runtime"
	"tempart/internal/solver"
)

func main() {
	// The CUBE worst-case geometry doubles as a blast chamber: three
	// disjoint refined regions around the charge locations.
	m, err := mesh.ByName("CUBE", 0.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh %s: %d cells, census %v\n", m.Name, m.NumCells(), m.Census())

	sv, err := solver.New(context.Background(), m, solver.Config{
		NumDomains: 16,
		Strategy:   partition.MCTL,
		PartOpts:   partition.Options{Seed: 4, Trials: 2},
		Workers:    2,
		Policy:     runtime.WorkStealing,
		Model:      solver.Euler,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MC_TL decomposition: cut %d, level imbalance %v\n",
		sv.Partition.EdgeCut, sv.Partition.Imbalance())

	const iterations = 4
	rep, err := sv.Run(iterations)
	if err != nil {
		log.Fatal(err)
	}
	for i, w := range rep.WallPerIteration {
		fmt.Printf("iteration %d: %v\n", i, w.Round(time.Microsecond))
	}
	fmt.Printf("mass drift: %.2e (exact conservation to round-off)\n", rep.MassDriftRel)
	fmt.Printf("total energy: %.6f\n", sv.EulerState.TotalEnergy())
	fmt.Printf("peak density: %.4f\n", peakDensity(sv.EulerState))

	// Replay on a virtual 8×4 cluster and export the trace.
	virt, err := sv.VirtualMakespan(rep, flusim.Cluster{NumProcs: 8, WorkersPerProc: 4}, flusim.Eager, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("virtual 8×4 cluster makespan: %v\n", time.Duration(virt.Makespan))

	out, err := os.Create("blastwave_trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer out.Close()
	if err := virt.Trace.WriteChromeTrace(out); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote blastwave_trace.json — open in chrome://tracing or Perfetto")
}

func peakDensity(s *fv.EulerState) float64 {
	m := s.Density(0)
	for c := 1; c < s.NumCells(); c++ {
		if d := s.Density(c); d > m {
			m = d
		}
	}
	return m
}
