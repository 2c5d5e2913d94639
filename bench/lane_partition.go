package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"tempart/internal/eval"
	"tempart/internal/flusim"
	"tempart/internal/graph"
	"tempart/internal/mesh"
	"tempart/internal/obs"
	"tempart/internal/partition"
)

// partitionCfg sizes the partition lane: MC_TL by recursive bisection on one
// generator mesh, scored on one simulated cluster.
type partitionCfg struct {
	Mesh    string
	Scale   float64
	K       int
	Cluster flusim.Cluster
	// Rounds is the number of timed rounds. A round partitions one seed
	// twice, serially and with two workers, back to back, so both variants
	// see the same machine state.
	Rounds int
	// GainSeeds is how many of the rounds' seeds also get an SC_OC partition
	// and its evaluation (makespan_gain).
	GainSeeds int
}

type partitionLane struct {
	cfg    partitionCfg
	m      *mesh.Mesh
	gm, gs *graph.Graph
}

func (l *partitionLane) name() string { return "partition" }

// setup is what must exist before a partition can be timed: the mesh and the
// two strategy graphs.
func (l *partitionLane) setup(e *env) (err error) {
	_, sp := enter(e.ctx, "mesh")
	defer sp.End()
	if l.m, err = mesh.ByName(l.cfg.Mesh, l.cfg.Scale); err != nil {
		return err
	}
	if l.gm, err = partition.StrategyGraph(l.m, partition.MCTL); err != nil {
		return err
	}
	l.gs, err = partition.StrategyGraph(l.m, partition.SCOC)
	return err
}

func (l *partitionLane) close() { *l = partitionLane{cfg: l.cfg} }

// timedPartition runs one partition under a bench/partition span with the
// garbage of earlier calls collected first, outside the timed region. phases
// marks the span as one whose library phase spans the traced run reads: the
// timed serial MC_TL calls, where they tile the wall clock.
func timedPartition(ctx context.Context, g *graph.Graph, k int, seed int64, par int, phases bool) (*partition.Result, float64, error) {
	runtime.GC()
	c, sp := enter(ctx, "partition")
	if phases {
		sp.SetInt(serialAttr, 1)
	}
	t0 := time.Now()
	res, err := partition.Partition(c, g, k, partition.Options{Seed: seed, Parallelism: par})
	wall := time.Since(t0).Seconds()
	sp.End()
	return res, wall, err
}

func (l *partitionLane) measure(e *env) {
	cfg, rep := l.cfg, e.rep
	cells := float64(l.m.NumCells())
	seedOf := func(round int) int64 { return subSeed(e.seed, streamPartition, round) }

	// One discarded repetition of each variant fills the partitioner's
	// scratch pools and faults the graph in.
	for _, par := range []int{1, 2} {
		if _, _, err := timedPartition(e.ctx, l.gm, cfg.K, seedOf(-1), par, false); err != nil {
			rep.gateErr(err, "partition warm-up")
			return
		}
	}

	var serial, par2, untraced, cuts, imbs []float64
	var parts [][]int32 // every round's MC_TL assignment, for the evaluations below
	steps := float64(cfg.Rounds + cfg.GainSeeds)
	for r := 0; r < cfg.Rounds; r++ {
		e.pause(float64(r) / steps)
		p1, w1, err := timedPartition(e.ctx, l.gm, cfg.K, seedOf(r), 1, true)
		if !rep.gateErr(err, "partition P=1") {
			return
		}
		p2, w2, err := timedPartition(e.ctx, l.gm, cfg.K, seedOf(r), 2, false)
		if !rep.gateErr(err, "partition P=2") {
			return
		}
		serial, par2 = append(serial, w1), append(par2, w2)
		if e.traced() {
			// The same call with no recorder in reach, interleaved, prices the tracing.
			_, w0, err := timedPartition(context.Background(), l.gm, cfg.K, seedOf(r), 1, false)
			if !rep.gateErr(err, "partition untraced") {
				return
			}
			untraced = append(untraced, w0)
		}
		rep.gateErr(p1.Validate(l.gm), "partition valid")
		rep.gate(partition.ComputeEdgeCut(l.gm, p1.Part) == p1.EdgeCut, "round %d: recomputed edge cut differs from Result.EdgeCut %d", r, p1.EdgeCut)
		rep.gate(slices.Equal(p1.Part, p2.Part), "round %d: P=1 and P=2 part vectors differ", r)
		cuts, imbs = append(cuts, float64(p1.EdgeCut)), append(imbs, p1.MaxImbalance())
		parts = append(parts, p1.Part)
	}
	rep.set("partition_cells_per_s", cells/median(serial), len(serial))
	rep.set("partition_par_cells_per_s", cells/median(par2), len(par2))
	rep.set("edge_cut", mean(cuts), 0)
	rep.set("worst_level_imbalance", mean(imbs), 0)

	// Quality on the simulated cluster, as means over seeds: one seed's
	// makespan moves by several percent with its luck, SC_OC's most of all.
	ev := eval.New(eval.Options{Parallelism: 1})
	score := func(part []int32) float64 {
		ms, err := eagerMakespan(e, ev, l.m, part, cfg.K, cfg.Cluster)
		rep.gateErr(err, "evaluate")
		return ms
	}
	scPar := 2
	if e.traced() {
		scPar = 1 // timed as partition.sc_cells_per_s
	}
	var mc, sc, scWall []float64
	for r, part := range parts {
		mc = append(mc, score(part))
		if r >= cfg.GainSeeds {
			continue
		}
		e.pause(float64(cfg.Rounds+r) / steps)
		res, w, err := timedPartition(e.ctx, l.gs, cfg.K, seedOf(r), scPar, false)
		if !rep.gateErr(err, "partition SC_OC") {
			return
		}
		scWall = append(scWall, w)
		sc = append(sc, score(res.Part))
	}
	rep.set("makespan", mean(mc), 0)
	rep.set("makespan_gain", mean(sc)/mean(mc[:len(sc)]), 0)

	if e.traced() {
		rep.set("partition.sc_cells_per_s", cells/median(scWall), len(scWall))
		rep.set("partition.par2_speedup", median(serial)/median(par2), len(serial))
		rep.set("trace.overhead_ratio", median(serial)/median(untraced), len(untraced))
		l.kernels(e)
	}
}

// pairMatching is the benchmark's own coarsening map: every vertex pairs with
// its first unmatched neighbour, so ContractP halves the graph the way one
// matching level of the partitioner does.
func pairMatching(g *graph.Graph) (cmap []int32, ncoarse int) {
	n := g.NumVertices()
	cmap = make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	for v := int32(0); int(v) < n; v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = int32(ncoarse)
		for _, u := range g.Neighbors(v) {
			if cmap[u] < 0 {
				cmap[u] = int32(ncoarse)
				break
			}
		}
		ncoarse++
	}
	return cmap, ncoarse
}

// kernels times the layers below the partitioner on the lane's own mesh and
// reads the partitioner's phase spans. Traced runs only.
func (l *partitionLane) kernels(e *env) {
	cfg, rep := l.cfg, e.rep
	cells := float64(l.m.NumCells())
	edges := float64(l.gm.NumEdges())

	gen := timeCalls(kernelCalls, func() {
		_, sp := enter(e.ctx, "mesh")
		_, err := mesh.ByName(cfg.Mesh, cfg.Scale)
		sp.End()
		rep.gateErr(err, "mesh.ByName")
	})
	rep.set("mesh.gen_cells_per_s", cells/median(gen), len(gen))
	dual := timeCalls(kernelCalls, func() {
		_, sp := enter(e.ctx, "mesh")
		l.m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
		sp.End()
	})
	rep.set("mesh.dual_graph_cells_per_s", cells/median(dual), len(dual))

	cmap, ncoarse := pairMatching(l.gm)
	contract := timeCalls(kernelCalls, func() {
		_, sp := enter(e.ctx, "graph")
		coarse := l.gm.ContractP(cmap, ncoarse, nil)
		sp.End()
		rep.gate(coarse.NumVertices() == ncoarse, "ContractP returned %d vertices, want %d", coarse.NumVertices(), ncoarse)
	})
	rep.set("graph.contract_edges_per_s", edges/median(contract), len(contract))
	half := make([]int32, 0, l.gm.NumVertices()/2+1)
	for v := 0; v < l.gm.NumVertices(); v += 2 {
		half = append(half, int32(v))
	}
	var scratch graph.Scratch
	sub := timeCalls(kernelCalls, func() {
		_, sp := enter(e.ctx, "graph")
		sg, _ := l.gm.SubgraphWith(half, &scratch)
		sp.End()
		rep.gate(sg.NumVertices() == len(half), "SubgraphWith returned %d vertices, want %d", sg.NumVertices(), len(half))
	})
	rep.set("graph.subgraph_edges_per_s", edges/median(sub), len(sub))

	sfc := timeCalls(kernelCalls, func() {
		_, sp := enter(e.ctx, "partition")
		_, err := partition.SFCPartition(l.m, cfg.K)
		sp.End()
		rep.gateErr(err, "SFCPartition")
	})
	rep.set("partition.sfc_cells_per_s", cells/median(sfc), len(sfc))

	// Allocation cost of one serial partition, from the runtime's own counters.
	var allocs, bytes []float64
	for i := 0; i < 3; i++ {
		a, b := heapCost(func() {
			_, err := partition.Partition(context.Background(), l.gm, cfg.K, partition.Options{Seed: subSeed(e.seed, streamPartition, i), Parallelism: 1})
			rep.gateErr(err, "partition for allocation count")
		})
		allocs, bytes = append(allocs, a), append(bytes, b)
	}
	rep.set("partition.allocs_per_op", median(allocs), len(allocs))
	rep.set("partition.bytes_per_op", median(bytes), len(bytes))

	pp := serialPartitionPhases(obs.FromContext(e.ctx).Snapshot())
	if pp.calls == 0 {
		rep.gate(false, "no serial bench/partition span was recorded")
		return
	}
	per := func(name string) float64 { return pp.byName[name] / float64(pp.calls) }
	rep.set("partition.coarsen_s", per("partition/coarsen"), pp.calls)
	rep.set("partition.match_s", per("partition/coarsen/match"), pp.calls)
	rep.set("partition.contract_s", per("partition/coarsen/contract"), pp.calls)
	rep.set("partition.initial_s", per("partition/initial"), pp.calls)
	rep.set("partition.refine_s", per("partition/refine"), pp.calls)
	rep.set("partition.subgraph_s", per("partition/subgraph"), pp.calls)
	rep.set("partition.fm_passes", float64(pp.fmPasses)/float64(pp.calls), pp.calls)
	rep.set("partition.span_coverage", pp.covered/pp.wall, pp.calls)
	rep.gate(pp.covered/pp.wall >= 0.90, "partition phase spans cover %.3f of bench/partition at Parallelism 1, want >= 0.90", pp.covered/pp.wall)
}

func (c partitionCfg) String() string {
	return fmt.Sprintf("%s scale %g, k=%d, cluster %dx%d, %d rounds", c.Mesh, c.Scale, c.K, c.Cluster.NumProcs, c.Cluster.WorkersPerProc, c.Rounds)
}
