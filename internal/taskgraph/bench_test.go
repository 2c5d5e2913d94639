package taskgraph

import (
	"context"
	"fmt"
	"testing"

	"tempart/internal/mesh"
	"tempart/internal/partition"
)

// BenchmarkTaskGraphBuild measures DAG construction over a paper-shaped
// decomposition (CYLINDER, 128 domains). The tasks/s metric is what the
// evaluation pipeline's throughput ultimately hangs off.
func BenchmarkTaskGraphBuild(b *testing.B) {
	m := mesh.Cylinder(0.005)
	res, err := partition.PartitionMesh(context.Background(), m, 128, partition.MCTL,
		partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tg, err := Build(m, res.Part, 128, Options{})
	if err != nil {
		b.Fatal(err)
	}
	tasks := tg.NumTasks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(m, res.Part, 128, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
}

// BenchmarkBuildIterations tracks the multi-iteration DAG used by the deeper
// evaluation specs (tempartd's evaluate.iterations, partbench -repart).
func BenchmarkBuildIterations(b *testing.B) {
	m := mesh.Cylinder(0.002)
	res, err := partition.PartitionMesh(context.Background(), m, 64, partition.MCTL,
		partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, iters := range []int{1, 4} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildIterations(m, res.Part, 64, iters, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
