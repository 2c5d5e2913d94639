// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the ablations behind the headline result. Each benchmark reports the
// paper-relevant quantity (speedup ratio, gain %, variance) as a custom
// metric alongside the usual ns/op.
//
// Scale: the benchmarks run at 1/100 of the paper's mesh sizes so the suite
// finishes in well under a minute on one core. Shapes — who wins, by what
// factor, trends — are scale-stable; regenerate a figure at the published
// size with `go run ./cmd/experiments -exp fig9 -scale 1.0` (EXPERIMENTS.md).
package experiments_test

import (
	"context"
	"testing"

	"tempart/internal/core"
	"tempart/internal/eval"
	"tempart/internal/experiments"
	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/solver"
)

// benchParams returns the experiment parameters every benchmark here runs at.
func benchParams() experiments.Params {
	return experiments.Params{Scale: 0.01, Seed: 1, GanttWidth: 80}
}

// BenchmarkTable1Meshes regenerates Table I (mesh censuses).
func BenchmarkTable1Meshes(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Meshes) != 3 {
			b.Fatal("missing meshes")
		}
	}
}

// BenchmarkFig5RuntimeVsFlusim regenerates Figure 5 (solver vs FLUSIM trace
// agreement) and reports the schedule-stretch variance.
func BenchmarkFig5RuntimeVsFlusim(b *testing.B) {
	p := benchParams()
	var variance float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(p)
		if err != nil {
			b.Fatal(err)
		}
		variance = r.VariancePct
	}
	b.ReportMetric(variance, "variance_%")
}

// BenchmarkFig6UnboundedCores regenerates Figure 6 and reports the mean
// active share (1.0 would mean no structural idleness).
func BenchmarkFig6UnboundedCores(b *testing.B) {
	p := benchParams()
	var share float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(p)
		if err != nil {
			b.Fatal(err)
		}
		share = r.MeanActiveShare
	}
	b.ReportMetric(share, "active_share")
}

// BenchmarkFig7SCOCCharacteristics regenerates Figure 7 and reports the
// worst per-level cost spread (skew) under SC_OC.
func BenchmarkFig7SCOCCharacteristics(b *testing.B) {
	p := benchParams()
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(p)
		if err != nil {
			b.Fatal(err)
		}
		worst = worstSpread(r.LevelSpread)
	}
	b.ReportMetric(worst, "worst_level_spread")
}

// BenchmarkFig10MCTLCharacteristics regenerates Figure 10 (the MC_TL
// counterpart of Figure 7).
func BenchmarkFig10MCTLCharacteristics(b *testing.B) {
	p := benchParams()
	var worst float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(p)
		if err != nil {
			b.Fatal(err)
		}
		worst = worstSpread(r.LevelSpread)
	}
	b.ReportMetric(worst, "worst_level_spread")
}

func worstSpread(spread []float64) float64 {
	w := 0.0
	for _, s := range spread {
		if s > w {
			w = s
		}
	}
	return w
}

// BenchmarkFig8TaskGraphShape regenerates Figure 8's task-count contrast.
func BenchmarkFig8TaskGraphShape(b *testing.B) {
	var bal int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(experiments.Params{})
		if err != nil {
			b.Fatal(err)
		}
		bal = r.BalFirstPhase
	}
	b.ReportMetric(float64(bal), "balanced_first_phase_tasks")
}

// BenchmarkFig9Speedup regenerates Figure 9 and reports the CYLINDER and
// CUBE speedups of MC_TL over SC_OC at 128 domains (paper: ~2×).
func BenchmarkFig9Speedup(b *testing.B) {
	p := benchParams()
	var cyl, cube float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(p)
		if err != nil {
			b.Fatal(err)
		}
		cyl, cube = r.Rows[0].Ratio, r.Rows[1].Ratio
	}
	b.ReportMetric(cyl, "cylinder_speedup")
	b.ReportMetric(cube, "cube_speedup")
}

// BenchmarkFig11Sweep regenerates Figure 11 (ratio and comm volume vs domain
// count) and reports the edge ratios of the sweep.
func BenchmarkFig11Sweep(b *testing.B) {
	p := benchParams()
	var first, last float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(p)
		if err != nil {
			b.Fatal(err)
		}
		first = r.Rows[0].SpeedupRatio
		last = r.Rows[len(r.Rows)-1].SpeedupRatio
	}
	b.ReportMetric(first, "ratio_fewest_domains")
	b.ReportMetric(last, "ratio_most_domains")
}

// BenchmarkFig12Nozzle regenerates Figure 12 and reports the FLUSIM gain of
// MC_TL on PPRIME_NOZZLE (paper: ~20%).
func BenchmarkFig12Nozzle(b *testing.B) {
	p := benchParams()
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(p)
		if err != nil {
			b.Fatal(err)
		}
		gain = r.GainPct
	}
	b.ReportMetric(gain, "gain_%")
}

// BenchmarkFig13Production regenerates Figure 13 — the production-style
// validation with real kernels — and reports the gain (paper: ~20%).
func BenchmarkFig13Production(b *testing.B) {
	p := benchParams()
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(p)
		if err != nil {
			b.Fatal(err)
		}
		gain = r.GainPct
	}
	b.ReportMetric(gain, "gain_%")
}

// ---- ablation benchmarks: the design choices behind the headline result ----

// BenchmarkAblationRBvsKWay quantifies the paper's §V choice of recursive
// bisection over direct k-way for multi-constraint partitioning: it reports
// the worst per-level imbalance of each method (lower = better balance).
func BenchmarkAblationRBvsKWay(b *testing.B) {
	m := mesh.Cylinder(benchParams().Scale)
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	var rbImb, kwImb float64
	for i := 0; i < b.N; i++ {
		rb, err := partition.Partition(context.Background(), g, 64, partition.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		kw, err := partition.Partition(context.Background(), g, 64, partition.Options{Seed: int64(i), Method: partition.DirectKWay})
		if err != nil {
			b.Fatal(err)
		}
		rbImb, kwImb = rb.MaxImbalance(), kw.MaxImbalance()
	}
	b.ReportMetric(rbImb, "rb_level_imbalance")
	b.ReportMetric(kwImb, "kway_level_imbalance")
}

// BenchmarkAblationSchedulers compares ready-queue policies on a bounded
// cluster under SC_OC — supporting the paper's §III-C claim that scheduling
// cannot fix the graph's shape (the spread across policies is small compared
// to the 2x partitioning gain).
func BenchmarkAblationSchedulers(b *testing.B) {
	m := mesh.Cylinder(benchParams().Scale)
	r, err := partition.PartitionMesh(context.Background(), m, 128, partition.SCOC, partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ev := eval.New(eval.Options{})
	spec := eval.Spec{Mesh: m, Part: r.Part, NumDomains: 128, ProcOf: flusim.BlockMap(128, 16),
		Sim: flusim.Config{Cluster: flusim.Cluster{NumProcs: 16, WorkersPerProc: 32}, Seed: 3}}
	spans := map[string]int64{}
	for i := 0; i < b.N; i++ {
		for _, s := range []flusim.Strategy{flusim.Eager, flusim.LIFO, flusim.CriticalPathFirst, flusim.RandomOrder} {
			spec.Sim.Strategy = s
			res, err := ev.Evaluate(spec)
			if err != nil {
				b.Fatal(err)
			}
			spans[s.String()] = res.Makespan
		}
	}
	for name, span := range spans {
		b.ReportMetric(float64(span), name+"_makespan")
	}
}

// BenchmarkAblationDualPhase evaluates the paper's §VII perspective under a
// communication-aware simulation: flat MC_TL pays its full cut between
// processes, while dual-phase MC_TL→SC_OC keeps intra-process subdomain
// traffic free.
func BenchmarkAblationDualPhase(b *testing.B) {
	m := mesh.Cylinder(benchParams().Scale)
	const procs, perProc = 16, 8
	const domains = procs * perProc
	const latency = 200
	sim := flusim.Config{Cluster: flusim.Cluster{NumProcs: procs, WorkersPerProc: 32}, CommLatency: latency}
	ev := eval.New(eval.Options{})
	var flat, dual int64
	for i := 0; i < b.N; i++ {
		fr, err := partition.PartitionMesh(context.Background(), m, domains, partition.MCTL, partition.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		fres, err := ev.Evaluate(eval.Spec{Mesh: m, Part: fr.Part, NumDomains: domains,
			ProcOf: flusim.BlockMap(domains, procs), Sim: sim})
		if err != nil {
			b.Fatal(err)
		}
		flat = fres.Makespan

		dp, err := partition.DualPhase(context.Background(), m, procs, perProc, partition.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		dres, err := ev.Evaluate(eval.Spec{Mesh: m, Part: dp.Domain, NumDomains: domains,
			ProcOf: dp.ProcOfDomain, Sim: sim})
		if err != nil {
			b.Fatal(err)
		}
		dual = dres.Makespan
	}
	b.ReportMetric(float64(flat), "flat_mctl_makespan")
	b.ReportMetric(float64(dual), "dualphase_makespan")
}

// BenchmarkAblationIterationPipelining compares N barrier-separated
// iterations against one chained N-iteration DAG: chaining lets idle tails
// overlap the next iteration's head, which softens SC_OC's imbalance.
func BenchmarkAblationIterationPipelining(b *testing.B) {
	m := mesh.Cylinder(benchParams().Scale)
	const iters = 4
	r, err := partition.PartitionMesh(context.Background(), m, 64, partition.SCOC, partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ev := eval.New(eval.Options{})
	one := eval.Spec{Mesh: m, Part: r.Part, NumDomains: 64, ProcOf: flusim.BlockMap(64, 16),
		Sim: flusim.Config{Cluster: flusim.Cluster{NumProcs: 16, WorkersPerProc: 32}}}
	chained := one
	chained.Iterations = iters
	var barrier, pipelined int64
	for i := 0; i < b.N; i++ {
		rOne, err := ev.Evaluate(one)
		if err != nil {
			b.Fatal(err)
		}
		barrier = int64(iters) * rOne.Makespan
		rChain, err := ev.Evaluate(chained)
		if err != nil {
			b.Fatal(err)
		}
		pipelined = rChain.Makespan
	}
	b.ReportMetric(float64(barrier), "barrier_makespan")
	b.ReportMetric(float64(pipelined), "pipelined_makespan")
	b.ReportMetric(float64(barrier)/float64(pipelined), "pipelining_gain")
}

// BenchmarkAblationGeometricBaselines positions the related-work geometric
// partitioners (coordinate RCB, Hilbert SFC) against the graph-based
// strategies on schedule quality.
func BenchmarkAblationGeometricBaselines(b *testing.B) {
	m := mesh.Cylinder(benchParams().Scale)
	cluster := core.Cluster{NumProcs: 16, WorkersPerProc: 32}
	spans := map[string]int64{}
	for i := 0; i < b.N; i++ {
		for _, strat := range []partition.Strategy{partition.SCOC, partition.MCTL, partition.GeomRCB, partition.SFC} {
			d, err := core.Decompose(context.Background(), m, 128, strat, partition.Options{Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := d.Simulate(flusim.Config{Cluster: cluster})
			if err != nil {
				b.Fatal(err)
			}
			spans[strat.String()] = sim.Makespan
		}
	}
	for name, span := range spans {
		b.ReportMetric(float64(span), name+"_makespan")
	}
}

// BenchmarkAblationConnectivityRepair measures what the §IX post-processing
// pass trades: fragments removed vs per-level balance lost.
func BenchmarkAblationConnectivityRepair(b *testing.B) {
	m := mesh.Cylinder(benchParams().Scale)
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	var fragBefore, fragAfter, imbBefore, imbAfter float64
	for i := 0; i < b.N; i++ {
		r, err := partition.PartitionMesh(context.Background(), m, 128, partition.MCTL, partition.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		fragBefore = float64(maxInts(partition.CountFragments(g, r.Part, 128)))
		imbBefore = partition.NewResult(g, r.Part, 128).MaxImbalance()
		partition.RepairConnectivity(g, r.Part, 128, 0.05)
		fragAfter = float64(maxInts(partition.CountFragments(g, r.Part, 128)))
		imbAfter = partition.NewResult(g, r.Part, 128).MaxImbalance()
	}
	b.ReportMetric(fragBefore, "fragments_before")
	b.ReportMetric(fragAfter, "fragments_after")
	b.ReportMetric(imbBefore, "level_imbalance_before")
	b.ReportMetric(imbAfter, "level_imbalance_after")
}

func maxInts(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// BenchmarkFig13EulerProduction repeats the Figure 13 production comparison
// with the compressible Euler kernels (5 conserved variables — the closest
// load to FLUSEPA's Navier-Stokes) instead of the scalar model.
func BenchmarkFig13EulerProduction(b *testing.B) {
	p := benchParams()
	m := mesh.Nozzle(p.Scale)
	cluster := flusim.Cluster{NumProcs: 6, WorkersPerProc: 4}
	var gains float64
	for i := 0; i < b.N; i++ {
		makespan := func(strat partition.Strategy) int64 {
			sv, err := solver.New(context.Background(), m, solver.Config{
				NumDomains: 12, Strategy: strat, Workers: 1,
				Model: solver.Euler, PartOpts: partition.Options{Seed: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := sv.Run(3)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sv.VirtualMakespan(rep, cluster, flusim.Eager, false)
			if err != nil {
				b.Fatal(err)
			}
			return res.Makespan
		}
		sc := makespan(partition.SCOC)
		mc := makespan(partition.MCTL)
		gains = 100 * (1 - float64(mc)/float64(sc))
	}
	b.ReportMetric(gains, "gain_%")
}
