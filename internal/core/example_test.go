package core_test

import (
	"context"
	"fmt"

	"tempart/internal/core"
	"tempart/internal/flusim"
	"tempart/internal/partition"
)

// Example walks the paper's pipeline end to end: load a mesh with temporal
// levels, partition it with the multi-constraint temporal-level strategy,
// and simulate the resulting task graph on a virtual cluster.
func Example() {
	m, err := core.LoadMesh("CUBE", 0.02)
	if err != nil {
		fmt.Println(err)
		return
	}
	d, err := core.Decompose(context.Background(), m, 4, partition.MCTL, partition.Options{Seed: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	sim, err := d.Simulate(flusim.Config{Cluster: core.Cluster{NumProcs: 2, WorkersPerProc: 4}})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("domains:", d.Result.NumParts)
	fmt.Println("levels balanced:", d.Quality.LevelImbalance[0] < 2.0)
	fmt.Println("schedule respects bounds:", sim.Makespan >= sim.CriticalPath)
	// Output:
	// domains: 4
	// levels balanced: true
	// schedule respects bounds: true
}
