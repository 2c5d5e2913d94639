package partition

import (
	"context"
	"fmt"
	"runtime/debug"
	"testing"

	"tempart/internal/graph"
	"tempart/internal/mesh"
	"tempart/internal/obs"
)

// BenchmarkPartitionCylinder is the perf contract of the parallel multilevel
// pipeline: the CI-scale cylinder at several Parallelism settings, with
// edge-cut and worst per-level imbalance reported alongside ns/op so a speed
// win that degrades quality is visible in the same output. Because the
// result is bit-identical across settings, the quality metrics must not move
// between sub-benchmarks — only ns/op may.
func BenchmarkPartitionCylinder(b *testing.B) {
	m := mesh.Cylinder(0.01)
	const k = 64
	for _, par := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("parallel=%d", par)
		if par == 0 {
			name = "parallel=max"
		}
		b.Run(name, func(b *testing.B) {
			var res *Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = PartitionMesh(context.Background(), m, k, MCTL,
					Options{Seed: 1, Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.EdgeCut), "edge-cut")
			worst := 0.0
			for _, v := range res.Imbalance() {
				if v > worst {
					worst = v
				}
			}
			b.ReportMetric(worst, "max-level-imb")
		})
	}
}

// BenchmarkPartitionKWayCylinder covers the direct k-way construction: one
// deep hierarchy instead of a bisection tree, refined by the Refiner's
// climbs (Refiner.Climb) at every level.
func BenchmarkPartitionKWayCylinder(b *testing.B) {
	m := mesh.Cylinder(0.01)
	const k = 64
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			var res *Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = PartitionMesh(context.Background(), m, k, MCTL,
					Options{Seed: 1, Method: DirectKWay, Parallelism: par})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.EdgeCut), "edge-cut")
		})
	}
}

// BenchmarkPaperScale is the nightly paper-scale lane: MC_TL at k = 128 on
// the full-size CYLINDER (6.4M cells) and PPRIME_NOZZLE (12.6M) meshes, with
// Parallelism 4. Besides cells/s and the quality pair it reports
// peak-rss/csr, the process's peak resident set (VmHWM) over the finest dual
// graph's CSR bytes: the footprint the streaming hierarchy bounds (DESIGN
// §5.9). VmHWM is a process high-water mark, so run one mesh per process:
//
//	go test -run=NONE -bench 'PaperScale/CYLINDER' -benchtime=1x -timeout 110m ./internal/partition/
//
// It takes minutes and gigabytes; CI runs it nightly, never on a pull request.
func BenchmarkPaperScale(b *testing.B) {
	for _, name := range []string{"CYLINDER", "PPRIME_NOZZLE"} {
		b.Run(name, func(b *testing.B) { benchPaperScale(b, name) })
	}
}

func benchPaperScale(b *testing.B, name string) {
	const k = 128
	g, prevLimit := paperScaleGraph(b, name)
	defer debug.SetMemoryLimit(prevLimit)
	// The partitioner needs only the dual graph. The mesh is unreachable now;
	// returning its pages keeps the measured peak to the partition's own.
	debug.FreeOSMemory()

	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Partition(context.Background(), g, k, Options{Seed: 1, Parallelism: 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(g.NumVertices())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
	b.ReportMetric(float64(res.EdgeCut), "edge-cut")
	b.ReportMetric(res.MaxImbalance(), "max-level-imb")
	b.ReportMetric(float64(obs.PeakRSSBytes())/float64(g.Bytes()), "peak-rss/csr")
}

// paperScaleGraph generates the named mesh at scale 1.0 and returns its
// MC_TL dual graph, with the soft memory limit raised to 2.3× the graph's
// CSR bytes; the caller restores prevLimit. The limit goes up before the
// graph is built: peak RSS is a high-water mark, so GC garbage, normally
// allowed to reach about one live heap, would otherwise inflate it during
// graph assembly and the partition alike. The CSR size is known from the
// mesh alone: xadj, two words per interior face for adjncy and for adjwgt,
// and one vertex weight per level.
func paperScaleGraph(b *testing.B, name string) (g *graph.Graph, prevLimit int64) {
	m, err := mesh.ByName(name, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	cells := int64(m.NumCells())
	csr := 4 * (cells + 1 + 4*int64(m.NumInteriorFaces) + cells*int64(m.MaxLevel+1))
	prevLimit = debug.SetMemoryLimit(23 * csr / 10)
	g, err = StrategyGraph(m, MCTL)
	if err != nil {
		b.Fatal(err)
	}
	return g, prevLimit
}
