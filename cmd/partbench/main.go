// Command partbench compares every partitioning strategy on one mesh: cut,
// balance, per-level balance, fragments, partitioning time, simulated
// makespan and communication volume — the quality axes the paper discusses,
// side by side, including the geometric baselines (RCB, Hilbert SFC) from
// the related-work section and both k-way construction methods.
//
// Example:
//
//	partbench -mesh CYLINDER -scale 0.01 -domains 128 -procs 16 -workers 32
//	partbench -mesh CUBE -scale 0.01 -json | jq '.results[].makespan'
//	partbench -report run.json -pipeline-trace pipe.json   # manifest + Perfetto trace
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"tempart/internal/core"
	"tempart/internal/eval"
	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/metrics"
	"tempart/internal/obs"
	"tempart/internal/partition"
	"tempart/internal/taskgraph"
)

// Pre-PR-4 evaluation-pipeline allocation baselines, measured on CYLINDER
// scale 0.01 / 128 domains / 16×32 cluster before the epoch-marker Build and
// reusable Simulator landed. Kept in the JSON report so the ≥3× trajectory
// stays visible from this PR on.
const (
	baselineBuildAllocsOp    = 22374
	baselineSimulateAllocsOp = 12675
)

// Pre-PR-8 refinement baselines: MC_TL(rb) on CYLINDER scale 0.005 / 128
// domains at -parallel 1, measured before the bucket-gain + pairwise-FM
// engine replaced the serial lazy-deletion heaps. Kept in the -phases report
// so the refine-phase trajectory stays visible next to fresh numbers.
const (
	baselineMCTLWallSeconds   = 0.590
	baselineMCTLRefineSeconds = 0.194
)

// sweepRow is one -sweep-parallel measurement: MC_TL(rb) partitioned at a
// given worker count, with the phase split.
type sweepRow struct {
	Parallel       int     `json:"parallel"`
	WallSeconds    float64 `json:"wall_seconds"`
	CoarsenSeconds float64 `json:"coarsen_seconds"`
	InitialSeconds float64 `json:"initial_seconds"`
	RefineSeconds  float64 `json:"refine_seconds"`
}

// refineSection carries the refinement-perf view of the report: the pre-PR-8
// serial baseline and the optional parallel sweep.
type refineSection struct {
	PrePR8WallSeconds   float64    `json:"pre_pr8_mctl_wall_seconds"`
	PrePR8RefineSeconds float64    `json:"pre_pr8_mctl_refine_seconds"`
	Sweep               []sweepRow `json:"parallel_sweep,omitempty"`
}

// result is one strategy's row, shared by the table and -json emitters.
type result struct {
	Strategy     string  `json:"strategy"`
	WallSeconds  float64 `json:"wall_seconds"`
	BuildSeconds float64 `json:"build_seconds"`
	SimSeconds   float64 `json:"simulate_seconds"`
	// Per-phase partition seconds from the obs spans (-phases). Zero for
	// the geometric strategies, which skip the multilevel pipeline.
	CoarsenSeconds float64 `json:"coarsen_seconds,omitempty"`
	InitialSeconds float64 `json:"initial_seconds,omitempty"`
	RefineSeconds  float64 `json:"refine_seconds,omitempty"`
	ReorderSeconds float64 `json:"reorder_seconds,omitempty"`
	// Memory view (-mem): peak live-heap bytes while this strategy
	// partitioned, and per-phase net heap deltas from the obs spans
	// (negative when a GC ran inside the phase).
	PeakHeapBytes    int64     `json:"peak_heap_bytes,omitempty"`
	CoarsenHeapBytes int64     `json:"coarsen_heap_bytes,omitempty"`
	InitialHeapBytes int64     `json:"initial_heap_bytes,omitempty"`
	RefineHeapBytes  int64     `json:"refine_heap_bytes,omitempty"`
	EdgeCut          int64     `json:"edge_cut"`
	MaxImbalance     float64   `json:"max_imbalance"`
	LevelImb         []float64 `json:"level_imbalance"`
	WorstLvlImb      float64   `json:"worst_level_imbalance"`
	MaxFragments     int       `json:"max_fragments"`
	Makespan         int64     `json:"makespan"`
	CommVolume       int64     `json:"comm_volume"`
	Efficiency       float64   `json:"efficiency"`
}

// evalSection tracks the evaluation pipeline's own performance: per-strategy
// build/simulate wall time plus the allocation counts of the two hot
// entry points, next to their pre-PR-4 baselines.
type evalSection struct {
	BuildAllocsOp            float64 `json:"build_allocs_op"`
	SimulateAllocsOp         float64 `json:"simulate_allocs_op"`
	BaselineBuildAllocsOp    float64 `json:"pre_pr4_build_allocs_op"`
	BaselineSimulateAllocsOp float64 `json:"pre_pr4_simulate_allocs_op"`
	Tasks                    int     `json:"tasks"`
	Deps                     int     `json:"deps"`
	BuildTasksPerSec         float64 `json:"build_tasks_per_sec"`
}

// memSection is the -mem footprint view: the mesh-generation footprint split
// from the partitioning footprint, the analytic finest-CSR size the streaming
// bound is stated against, and the process-level peaks.
type memSection struct {
	// MeshHeapBytes is the retained heap growth of mesh generation (GC'd
	// before and after, so transient generator garbage is excluded).
	MeshHeapBytes int64 `json:"mesh_heap_bytes"`
	// GraphCSRBytes is the analytic size of the finest MC_TL dual-graph CSR:
	// 4·((n+1) + 4·interiorFaces + n·ncon) with ncon = MaxLevel+1. The
	// paper-scale acceptance bound (peak RSS ≤ 2.5× this) divides by it.
	GraphCSRBytes int64 `json:"graph_csr_bytes"`
	// PeakHeapBytes is the largest per-strategy sampled live-heap peak.
	PeakHeapBytes int64 `json:"peak_heap_bytes"`
	// PeakRSSBytes is the kernel's VmHWM for the whole process (0 when the
	// platform hides it).
	PeakRSSBytes int64    `json:"peak_rss_bytes"`
	BytesPerCell float64  `json:"bytes_per_cell"`
	Full         *fullMem `json:"full,omitempty"`
}

// fullMem is the -mem-full subsection: one MC_TL(rb) partition of the same
// mesh at the paper's full scale, reporting the streaming acceptance ratios.
type fullMem struct {
	Scale           float64 `json:"scale"`
	Cells           int     `json:"cells"`
	MeshHeapBytes   int64   `json:"mesh_heap_bytes"`
	GraphCSRBytes   int64   `json:"graph_csr_bytes"`
	PeakHeapBytes   int64   `json:"peak_heap_bytes"`
	PeakRSSBytes    int64   `json:"peak_rss_bytes"`
	BytesPerCell    float64 `json:"bytes_per_cell"`
	PeakHeapOverCSR float64 `json:"peak_heap_over_csr"`
	PeakRSSOverCSR  float64 `json:"peak_rss_over_csr"`
	WallSeconds     float64 `json:"wall_seconds"`
}

// benchSchemaVersion versions the -json report layout. Bump it when a field
// changes meaning or disappears; adding fields does not require a bump.
const benchSchemaVersion = 1

type report struct {
	// SchemaVersion/GeneratedAt/GitRev stamp the report with its layout
	// version, production time (RFC 3339 UTC) and the VCS revision of the
	// binary, so committed snapshots and trajectory records carry their own
	// provenance.
	SchemaVersion int    `json:"schema_version"`
	GeneratedAt   string `json:"generated_at"`
	GitRev        string `json:"git_rev,omitempty"`

	Mesh     string         `json:"mesh"`
	Cells    int            `json:"cells"`
	Census   []int64        `json:"census"`
	Domains  int            `json:"domains"`
	Procs    int            `json:"procs"`
	Workers  int            `json:"workers"`
	Seed     int64          `json:"seed"`
	Parallel int            `json:"parallel"`
	Results  []result       `json:"results"`
	Eval     *evalSection   `json:"eval,omitempty"`
	Refine   *refineSection `json:"refine,omitempty"`
	Mem      *memSection    `json:"mem,omitempty"`
}

// graphCSRBytes is the analytic finest-CSR footprint: xadj (n+1) + adjncy and
// adjwgt (2·faces each) + vwgt (n·ncon), all int32.
func graphCSRBytes(cells, interiorFaces, ncon int) int64 {
	return 4 * (int64(cells+1) + 4*int64(interiorFaces) + int64(cells)*int64(ncon))
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

func main() {
	var (
		meshName = flag.String("mesh", "CYLINDER", "mesh: CYLINDER, CUBE or PPRIME_NOZZLE")
		scale    = flag.Float64("scale", 0.01, "mesh scale relative to the paper's cell counts")
		domains  = flag.Int("domains", 128, "number of domains")
		procs    = flag.Int("procs", 16, "emulated processes")
		workers  = flag.Int("workers", 32, "cores per process")
		seed     = flag.Int64("seed", 1, "random seed")
		parallel = flag.Int("parallel", 0, "worker goroutines for partitioning and the evaluation fan-out (0 = GOMAXPROCS, 1 = serial); results are identical at every setting")
		commLat  = flag.Int64("comm-latency", 0, "time units per cross-process dependency edge")
		kway     = flag.Bool("kway", false, "also run SC_OC/MC_TL with the direct k-way method")
		phases   = flag.Bool("phases", false, "record the per-phase partition seconds split (coarsen/initial/refine/reorder) per strategy, printed after the table and included in -json")
		sweepPar = flag.String("sweep-parallel", "", "comma-separated parallelism settings (e.g. 1,8); re-partitions MC_TL(rb) at each and reports wall + phase seconds next to the pre-PR8 serial baseline (implies -phases)")
		reorder  = flag.Bool("reorder", false, "partition under a cache-conscious BFS reorder (Options.Reorder) for the multilevel strategies")
		mem      = flag.Bool("mem", false, "record the memory footprint: mesh-generation heap split from partitioning heap, analytic finest-CSR bytes, per-strategy peak heap and per-phase heap deltas, process peak RSS; printed after the table and included in -json")
		memFull  = flag.Bool("mem-full", false, "additionally run one MC_TL(rb) partition of the mesh at the paper's full scale (-scale 1.0) and report peak heap/RSS against the finest-CSR footprint (implies -mem; takes minutes and gigabytes)")
		memChild = flag.Bool("mem-full-child", false, "internal: run only the full-scale footprint probe and emit its JSON on stdout (spawned by -mem-full for a clean per-process RSS high-water)")
		arena    = flag.Bool("arena", false, "mmap spilled coarse levels read-only (partition.Options.Arena) instead of heap read-back; results are byte-identical either way")
		asJSON   = flag.Bool("json", false, "emit one JSON report instead of the table")
		doRepart = flag.Bool("repart", false, "run the drift/repartition comparison instead of the strategy table")
		epochs   = flag.Int("epochs", 5, "drift epochs for -repart")
		step     = flag.Float64("drift-step", 0.05, "hotspot displacement per epoch, as a fraction of the mesh's x extent (-repart)")
		reportTo = flag.String("report", "", "write a JSON run manifest (inputs, build, per-phase timings, quality) to this file; pins -parallel 1 so phase times tile the partition wall clock")
		pipeTo   = flag.String("pipeline-trace", "", "write the instrumented pipeline spans as a Chrome trace (open in Perfetto) to this file")
		traceTo  = flag.String("trace", "", "write the winning strategy's FLUSIM schedule as a Chrome trace to this file")
		peers    = flag.String("peers", "", "fleet mode: comma-separated tempartd base URLs (host:port,...); sends the benchmark through every member and reports the per-node latency split instead of partitioning in-process")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("partbench"))
		return
	}
	if *peers != "" {
		runFleet(*peers, *meshName, *scale, *domains, *seed, *asJSON)
		return
	}
	if *memChild {
		f := fullScaleFootprint(*meshName, *domains,
			partition.Options{Seed: *seed, Parallelism: *parallel, Reorder: *reorder, Arena: *arena})
		check(json.NewEncoder(os.Stdout).Encode(f))
		return
	}
	if *reportTo != "" && *parallel != 1 {
		fmt.Fprintln(os.Stderr, "partbench: -report pins -parallel 1 so per-phase timings tile the partition wall clock")
		*parallel = 1
	}
	if *sweepPar != "" {
		*phases = true
	}
	if *memFull {
		*mem = true
	}
	var rec *obs.Recorder
	if *reportTo != "" || *pipeTo != "" || *phases || *mem {
		rec = obs.NewRecorder()
	}
	if *mem {
		rec.TrackMemory()
	}
	ctx := obs.WithRecorder(context.Background(), rec)

	var meshHeap int64
	if *mem {
		runtime.GC()
		meshHeap = -obs.HeapBytes()
	}
	m, err := core.LoadMesh(*meshName, *scale)
	check(err)
	if *mem {
		runtime.GC()
		meshHeap += obs.HeapBytes()
	}
	ev := eval.New(eval.Options{Parallelism: *parallel})
	if *doRepart {
		runRepart(ev, m, *domains, *procs, *workers, *parallel, *seed, *commLat, *epochs, *step, *asJSON)
		return
	}
	if !*asJSON {
		fmt.Printf("mesh %s: %d cells, census %v\n", m.Name, m.NumCells(), m.Census())
		fmt.Printf("%d domains on %d procs × %d cores, comm latency %d\n\n", *domains, *procs, *workers, *commLat)
	}

	type job struct {
		label string
		strat partition.Strategy
		opt   partition.Options
	}
	mlOpt := partition.Options{Seed: *seed, Parallelism: *parallel, Reorder: *reorder, Arena: *arena}
	jobs := []job{
		{"SC_OC(rb)", partition.SCOC, mlOpt},
		{"MC_TL(rb)", partition.MCTL, mlOpt},
		{"UNIT(rb)", partition.UnitCells, mlOpt},
		{"GEOM_RCB", partition.GeomRCB, partition.Options{}},
		{"SFC", partition.SFC, partition.Options{}},
	}
	if *kway {
		kwOpt := mlOpt
		kwOpt.Method = partition.DirectKWay
		jobs = append(jobs,
			job{"SC_OC(kway)", partition.SCOC, kwOpt},
			job{"MC_TL(kway)", partition.MCTL, kwOpt},
		)
	}

	if !*asJSON {
		fmt.Printf("%-12s %9s %9s %9s %10s %7s %7s %6s %10s %10s %7s\n",
			"strategy", "time", "build", "sim", "edge cut", "imb", "lvlimb", "frag", "makespan", "comm vol", "eff")
	}
	cluster := flusim.Cluster{NumProcs: *procs, WorkersPerProc: *workers}
	procOf := flusim.BlockMap(*domains, *procs)
	rep := report{
		SchemaVersion: benchSchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GitRev:        obs.ReadBuildInfo().Revision,
		Mesh:          m.Name, Cells: m.NumCells(), Census: m.Census(),
		Domains: *domains, Procs: *procs, Workers: *workers, Seed: *seed,
		Parallel: *parallel,
	}
	var mctlPart []int32
	var bestLabel string
	var bestPart []int32
	var bestMakespan int64
	for _, j := range jobs {
		var sampler *obs.PeakSampler
		if *mem {
			runtime.GC() // isolate this strategy's peak from prior garbage
			sampler = obs.StartPeakSampler(0)
		}
		before := rec.PhaseTotals()
		t0 := time.Now()
		res, err := partition.PartitionMesh(ctx, m, *domains, j.strat, j.opt)
		check(err)
		elapsed := time.Since(t0)
		after := rec.PhaseTotals()
		var peakHeap int64
		if sampler != nil {
			peakHeap = sampler.Stop()
		}

		q := metrics.EvaluatePartition(m, res, j.label)
		out, err := ev.Evaluate(eval.Spec{
			Mesh: m, Part: res.Part, NumDomains: res.NumParts,
			ProcOf: procOf,
			Sim:    flusim.Config{Cluster: cluster, CommLatency: *commLat},
			Obs:    rec,
		})
		check(err)
		if j.label == "MC_TL(rb)" {
			mctlPart = res.Part
		}
		if bestPart == nil || out.Makespan < bestMakespan {
			bestLabel, bestPart, bestMakespan = j.label, res.Part, out.Makespan
		}

		worstLvl := 0.0
		for _, v := range q.LevelImbalance {
			if v > worstLvl {
				worstLvl = v
			}
		}
		r := result{
			Strategy:         j.label,
			WallSeconds:      elapsed.Seconds(),
			BuildSeconds:     out.BuildSeconds,
			SimSeconds:       out.SimulateSeconds,
			CoarsenSeconds:   phaseDelta(before, after, "partition/coarsen"),
			InitialSeconds:   phaseDelta(before, after, "partition/initial"),
			RefineSeconds:    phaseDelta(before, after, "partition/refine"),
			ReorderSeconds:   phaseDelta(before, after, "partition/reorder"),
			PeakHeapBytes:    peakHeap,
			CoarsenHeapBytes: phaseHeapDelta(before, after, "partition/coarsen"),
			InitialHeapBytes: phaseHeapDelta(before, after, "partition/initial"),
			RefineHeapBytes:  phaseHeapDelta(before, after, "partition/refine"),
			EdgeCut:          res.EdgeCut,
			MaxImbalance:     res.MaxImbalance(),
			LevelImb:         q.LevelImbalance,
			WorstLvlImb:      worstLvl,
			MaxFragments:     q.MaxFragments(),
			Makespan:         out.Makespan,
			CommVolume:       out.CommVolume,
			Efficiency:       out.Efficiency,
		}
		rep.Results = append(rep.Results, r)
		if !*asJSON {
			fmt.Printf("%-12s %9s %9s %9s %10d %7.2f %7.2f %6d %10d %10d %7.2f\n",
				r.Strategy, elapsed.Round(time.Millisecond),
				time.Duration(r.BuildSeconds*float64(time.Second)).Round(time.Microsecond),
				time.Duration(r.SimSeconds*float64(time.Second)).Round(time.Microsecond),
				r.EdgeCut, r.MaxImbalance,
				r.WorstLvlImb, r.MaxFragments, r.Makespan, r.CommVolume, r.Efficiency)
		}
	}
	if *phases && !*asJSON {
		fmt.Printf("\nper-phase partition seconds (obs spans; concurrent spans sum CPU-cumulatively):\n")
		fmt.Printf("%-12s %9s %9s %9s %9s\n", "strategy", "coarsen", "initial", "refine", "reorder")
		for _, r := range rep.Results {
			fmt.Printf("%-12s %9.3f %9.3f %9.3f %9.3f\n",
				r.Strategy, r.CoarsenSeconds, r.InitialSeconds, r.RefineSeconds, r.ReorderSeconds)
		}
	}
	if *phases {
		rep.Refine = &refineSection{
			PrePR8WallSeconds:   baselineMCTLWallSeconds,
			PrePR8RefineSeconds: baselineMCTLRefineSeconds,
		}
		if *sweepPar != "" {
			if !*asJSON {
				fmt.Printf("\nMC_TL(rb) parallel sweep (pre-PR8 serial baseline: wall %.3fs, refine %.3fs):\n",
					baselineMCTLWallSeconds, baselineMCTLRefineSeconds)
				fmt.Printf("%8s %9s %9s %9s %9s\n", "parallel", "wall", "coarsen", "initial", "refine")
			}
			for _, field := range strings.Split(*sweepPar, ",") {
				par, err := strconv.Atoi(strings.TrimSpace(field))
				if err != nil || par < 1 {
					check(fmt.Errorf("bad -sweep-parallel entry %q", field))
				}
				opt := mlOpt
				opt.Parallelism = par
				before := rec.PhaseTotals()
				t0 := time.Now()
				_, err = partition.PartitionMesh(ctx, m, *domains, partition.MCTL, opt)
				check(err)
				after := rec.PhaseTotals()
				sr := sweepRow{
					Parallel:       par,
					WallSeconds:    time.Since(t0).Seconds(),
					CoarsenSeconds: phaseDelta(before, after, "partition/coarsen"),
					InitialSeconds: phaseDelta(before, after, "partition/initial"),
					RefineSeconds:  phaseDelta(before, after, "partition/refine"),
				}
				rep.Refine.Sweep = append(rep.Refine.Sweep, sr)
				if !*asJSON {
					fmt.Printf("%8d %9.3f %9.3f %9.3f %9.3f\n",
						sr.Parallel, sr.WallSeconds, sr.CoarsenSeconds, sr.InitialSeconds, sr.RefineSeconds)
				}
			}
		}
	}
	if *mem {
		ms := &memSection{
			MeshHeapBytes: meshHeap,
			GraphCSRBytes: graphCSRBytes(m.NumCells(), m.NumInteriorFaces, int(m.MaxLevel)+1),
		}
		for _, r := range rep.Results {
			if r.PeakHeapBytes > ms.PeakHeapBytes {
				ms.PeakHeapBytes = r.PeakHeapBytes
			}
		}
		ms.BytesPerCell = float64(ms.PeakHeapBytes) / float64(m.NumCells())
		if *memFull {
			ms.Full = measureFullScale(*meshName, *domains, mlOpt)
		}
		ms.PeakRSSBytes = obs.PeakRSSBytes()
		rep.Mem = ms
		if !*asJSON {
			fmt.Printf("\nmemory (-mem): mesh gen %.1f MiB heap, finest CSR %.1f MiB (analytic), peak heap %.1f MiB (%.1f bytes/cell), peak RSS %.1f MiB\n",
				mib(ms.MeshHeapBytes), mib(ms.GraphCSRBytes), mib(ms.PeakHeapBytes), ms.BytesPerCell, mib(ms.PeakRSSBytes))
			fmt.Printf("%-12s %10s %10s %10s %10s  (MiB; phase deltas net of GC)\n",
				"strategy", "peak heap", "coarsen", "initial", "refine")
			for _, r := range rep.Results {
				fmt.Printf("%-12s %10.1f %10.1f %10.1f %10.1f\n", r.Strategy,
					mib(r.PeakHeapBytes), mib(r.CoarsenHeapBytes), mib(r.InitialHeapBytes), mib(r.RefineHeapBytes))
			}
			if ms.Full != nil {
				f := ms.Full
				fmt.Printf("\nfull scale (-mem-full, MC_TL(rb), %d cells): peak heap %.0f MiB (%.2f x CSR), peak RSS %.0f MiB (%.2f x CSR), %.1f bytes/cell, %.1fs\n",
					f.Cells, mib(f.PeakHeapBytes), f.PeakHeapOverCSR, mib(f.PeakRSSBytes), f.PeakRSSOverCSR, f.BytesPerCell, f.WallSeconds)
			}
		}
	}
	if mctlPart != nil {
		rep.Eval = measureEvalPipeline(m, mctlPart, *domains, procOf, cluster, *commLat)
		if !*asJSON {
			fmt.Printf("\neval pipeline (MC_TL decomposition): build %.0f allocs/op (pre-PR4 %d), simulate %.0f allocs/op (pre-PR4 %d), %.0f tasks/s built\n",
				rep.Eval.BuildAllocsOp, baselineBuildAllocsOp,
				rep.Eval.SimulateAllocsOp, baselineSimulateAllocsOp,
				rep.Eval.BuildTasksPerSec)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(&rep))
	}

	if *traceTo != "" && bestPart != nil {
		// Re-evaluate the winner with trace recording on; the task graph comes
		// from the evaluator's cache, so only the simulation reruns.
		out, err := ev.Evaluate(eval.Spec{
			Mesh: m, Part: bestPart, NumDomains: *domains,
			ProcOf: procOf,
			Sim:    flusim.Config{Cluster: cluster, CommLatency: *commLat, RecordTrace: true},
			Obs:    rec,
		})
		check(err)
		writeFile(*traceTo, out.Trace.WriteChromeTrace)
		fmt.Fprintf(os.Stderr, "partbench: FLUSIM schedule of %s (makespan %d) written to %s\n",
			bestLabel, bestMakespan, *traceTo)
	}
	if *pipeTo != "" {
		writeFile(*pipeTo, rec.WriteChromeTrace)
		fmt.Fprintf(os.Stderr, "partbench: pipeline trace written to %s (open in Perfetto)\n", *pipeTo)
	}
	if *reportTo != "" {
		man := obs.NewManifest("partbench")
		man.Inputs["mesh"] = m.Name
		man.Inputs["cells"] = m.NumCells()
		man.Inputs["scale"] = *scale
		man.Inputs["domains"] = *domains
		man.Inputs["procs"] = *procs
		man.Inputs["workers"] = *workers
		man.Inputs["seed"] = *seed
		man.Inputs["parallel"] = *parallel
		man.Inputs["comm_latency"] = *commLat
		man.Inputs["kway"] = *kway
		for _, r := range rep.Results {
			man.Metrics["edge_cut/"+r.Strategy] = float64(r.EdgeCut)
			man.Metrics["max_imbalance/"+r.Strategy] = r.MaxImbalance
			man.Metrics["makespan/"+r.Strategy] = float64(r.Makespan)
			man.Metrics["comm_volume/"+r.Strategy] = float64(r.CommVolume)
			man.Metrics["partition_seconds/"+r.Strategy] = r.WallSeconds
		}
		man.Finish(rec)
		writeFile(*reportTo, man.WriteJSON)
		fmt.Fprintf(os.Stderr, "partbench: run manifest written to %s\n", *reportTo)
	}
}

// phaseDelta returns the seconds a span name accumulated between two
// PhaseTotals snapshots — the per-strategy share of a shared recorder.
func phaseDelta(before, after map[string]obs.PhaseStat, name string) float64 {
	d := after[name].Seconds - before[name].Seconds
	if d < 0 {
		return 0
	}
	return d
}

// phaseHeapDelta is phaseDelta for net heap growth; negative values (a GC
// landed inside the phase) are kept, they are informative.
func phaseHeapDelta(before, after map[string]obs.PhaseStat, name string) int64 {
	return after[name].HeapDelta - before[name].HeapDelta
}

// measureFullScale runs the full-scale footprint probe in a child process and
// returns its report. Peak RSS (VmHWM) is a process-lifetime high-water mark,
// so measured in this process it would also count whatever the small-scale
// strategy sweep touched; re-execing partbench with the internal
// -mem-full-child flag gives the probe a process of its own whose high-water
// is exactly the full-scale run. If the executable path cannot be resolved
// (unusual embedding), the probe degrades to measuring in-process.
func measureFullScale(meshName string, domains int, opt partition.Options) *fullMem {
	exe, err := os.Executable()
	if err != nil {
		return fullScaleFootprint(meshName, domains, opt)
	}
	args := []string{
		"-mem-full-child",
		"-mesh", meshName,
		"-domains", strconv.Itoa(domains),
		"-seed", strconv.FormatInt(opt.Seed, 10),
		"-parallel", strconv.Itoa(opt.Parallelism),
	}
	if opt.Reorder {
		args = append(args, "-reorder")
	}
	if opt.Arena {
		args = append(args, "-arena")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		check(fmt.Errorf("-mem-full child: %w", err))
	}
	var f fullMem
	check(json.Unmarshal(out, &f))
	return &f
}

// fullScaleFootprint partitions the named mesh at the paper's full scale with
// MC_TL(rb) — the configuration the streaming-coarsening acceptance bound is
// stated for — and reports footprint against the analytic finest-CSR size.
// It is meant to run in a fresh process (see measureFullScale).
func fullScaleFootprint(meshName string, domains int, opt partition.Options) *fullMem {
	fmt.Fprintf(os.Stderr, "partbench: -mem-full: partitioning %s at scale 1.0 (takes minutes and gigabytes)...\n", meshName)
	t0 := time.Now()
	m, err := core.LoadMesh(meshName, 1.0)
	check(err)
	runtime.GC()
	meshHeap := obs.HeapBytes()
	cells := m.NumCells()
	csr := graphCSRBytes(cells, m.NumInteriorFaces, int(m.MaxLevel)+1)
	// The soft limit goes up before the dual graph is even built: peak RSS is
	// a process high-water mark, so GC garbage — normally allowed to reach
	// ~1× live heap — would otherwise inflate RSS past the bound during
	// graph assembly and the partition alike. The bound is stated against
	// the analytic finest-CSR footprint, known as soon as the mesh exists.
	prevLimit := debug.SetMemoryLimit(23 * csr / 10)
	g, err := partition.StrategyGraph(m, partition.MCTL)
	check(err)
	// The partitioner only needs the dual graph; dropping the mesh (and
	// returning its pages to the OS) before partitioning keeps the measured
	// peak to what the partition itself costs.
	m = nil //nolint:ineffassign // drops the last mesh reference for the GC
	debug.FreeOSMemory()
	sampler := obs.StartPeakSampler(0)
	_, err = partition.Partition(context.Background(), g, domains, opt)
	check(err)
	peak := sampler.Stop()
	rss := obs.PeakRSSBytes()
	debug.SetMemoryLimit(prevLimit)
	return &fullMem{
		Scale:           1.0,
		Cells:           cells,
		MeshHeapBytes:   meshHeap,
		GraphCSRBytes:   csr,
		PeakHeapBytes:   peak,
		PeakRSSBytes:    rss,
		BytesPerCell:    float64(peak) / float64(cells),
		PeakHeapOverCSR: float64(peak) / float64(csr),
		PeakRSSOverCSR:  float64(rss) / float64(csr),
		WallSeconds:     time.Since(t0).Seconds(),
	}
}

// writeFile streams one of the JSON emitters into path.
func writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	check(err)
	check(write(f))
	check(f.Close())
}

// measureEvalPipeline measures the evaluation pipeline's allocation counts
// and build throughput on the given decomposition. The simulator is measured
// warmed, which is the steady state every sweep runs in.
func measureEvalPipeline(m *mesh.Mesh, part []int32, domains int, procOf []int32, cluster flusim.Cluster, commLat int64) *evalSection {
	var opt taskgraph.Options
	tg, err := taskgraph.Build(m, part, domains, opt)
	check(err)
	cfg := flusim.Config{Cluster: cluster, CommLatency: commLat}

	buildAllocs := testing.AllocsPerRun(3, func() {
		if _, err := taskgraph.Build(m, part, domains, opt); err != nil {
			check(err)
		}
	})
	t0 := time.Now()
	const buildReps = 3
	for i := 0; i < buildReps; i++ {
		if _, err := taskgraph.Build(m, part, domains, opt); err != nil {
			check(err)
		}
	}
	buildSec := time.Since(t0).Seconds() / buildReps

	sim := flusim.NewSimulator()
	var res flusim.Result
	check(sim.SimulateInto(&res, tg, procOf, cfg))
	simAllocs := testing.AllocsPerRun(3, func() {
		if err := sim.SimulateInto(&res, tg, procOf, cfg); err != nil {
			check(err)
		}
	})

	return &evalSection{
		BuildAllocsOp:            buildAllocs,
		SimulateAllocsOp:         simAllocs,
		BaselineBuildAllocsOp:    baselineBuildAllocsOp,
		BaselineSimulateAllocsOp: baselineSimulateAllocsOp,
		Tasks:                    tg.NumTasks(),
		Deps:                     tg.NumDeps(),
		BuildTasksPerSec:         float64(tg.NumTasks()) / buildSec,
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "partbench:", err)
		os.Exit(1)
	}
}
