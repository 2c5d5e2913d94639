// Quickstart: partition a temporally adaptive mesh two ways and watch the
// task schedule change.
//
// This walks the paper's core pipeline in ~40 lines: load a mesh whose cells
// carry temporal levels, decompose it with the baseline operating-cost
// strategy (SC_OC) and with the temporal-level-aware multi-constraint
// strategy (MC_TL), simulate both schedules on the same virtual cluster and
// compare makespans, balance and communication volume.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"tempart/internal/core"
	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/partition"
)

func main() {
	// CYLINDER at 1/200 of the paper's size: ~32k cells, 4 temporal levels.
	m, err := core.LoadMesh("CYLINDER", 0.005)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mesh %s: %d cells, levels census %v\n\n", m.Name, m.NumCells(), m.Census())

	cluster := core.Cluster{NumProcs: 8, WorkersPerProc: 8}
	rows, err := core.Compare(context.Background(), m, core.CompareConfig{
		NumDomains: 64,
		Cluster:    cluster,
		Strategies: []partition.Strategy{partition.SCOC, partition.MCTL},
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s %10s %8s %10s %10s %6s  %s\n",
		"strategy", "makespan", "speedup", "edge cut", "comm vol", "eff", "per-level imbalance")
	for _, r := range rows {
		fmt.Printf("%-8s %10d %7.2fx %10d %10d %6.2f  %v\n",
			r.Strategy, r.Makespan, r.Speedup, r.EdgeCut, r.CommVolume, r.Efficiency, fmtImb(r.LevelImbalance))
	}

	// Show the two schedules: digits are subiterations, dots are idle time.
	fmt.Println("\nSC_OC schedule (note the idle blocks after subiteration 0):")
	printGantt(m, 64, partition.SCOC, cluster)
	fmt.Println("\nMC_TL schedule (every process active in every subiteration):")
	printGantt(m, 64, partition.MCTL, cluster)
}

func printGantt(m *mesh.Mesh, domains int, strat partition.Strategy, cluster core.Cluster) {
	d, err := core.Decompose(context.Background(), m, domains, strat, partition.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := d.Simulate(flusim.Config{Cluster: cluster, RecordTrace: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(sim.Trace.Gantt(96))
}

func fmtImb(v []float64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.2f", x)
	}
	return s + "]"
}
