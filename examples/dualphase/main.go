// Dualphase: the paper's §VII perspective implemented — decouple resource
// mapping from task granularity with a two-phase partitioning.
//
// Phase 1 splits the mesh across processes with MC_TL (every temporal level
// balanced, one domain per process); phase 2 re-partitions inside each
// process-domain with SC_OC to recover fine-grained tasks without paying
// MC_TL's communication cost between subdomains of the same process. The
// example compares three configurations at equal task granularity:
//
//	flat SC_OC   — 128 domains, operating-cost balance only (baseline)
//	flat MC_TL   — 128 domains, all levels balanced (paper's main method)
//	dual-phase   — MC_TL across 16 processes × SC_OC into 8 subdomains each
//
//	go run ./examples/dualphase
package main

import (
	"context"
	"fmt"
	"log"

	"tempart/internal/core"
	"tempart/internal/eval"
	"tempart/internal/flusim"
	"tempart/internal/metrics"
	"tempart/internal/partition"
)

func main() {
	m, err := core.LoadMesh("CYLINDER", 0.01)
	if err != nil {
		log.Fatal(err)
	}
	const (
		procs          = 16
		domainsPerProc = 8
		domains        = procs * domainsPerProc
		workers        = 32
	)
	cluster := flusim.Cluster{NumProcs: procs, WorkersPerProc: workers}
	fmt.Printf("mesh %s: %d cells; %d procs × %d cores, %d domains\n\n",
		m.Name, m.NumCells(), procs, workers, domains)

	ev := eval.New(eval.Options{})
	show := func(label string, part []int32, procOf []int32) {
		res, err := ev.Evaluate(eval.Spec{Mesh: m, Part: part, NumDomains: domains,
			ProcOf: procOf, Sim: flusim.Config{Cluster: cluster}})
		if err != nil {
			log.Fatal(err)
		}
		spread := metrics.LevelSpread(metrics.CellsByLevelPerProc(m, part, procOf, procs))
		fmt.Printf("%-28s makespan %8d   comm volume %7d   level spread %v\n",
			label, res.Makespan, res.CommVolume, fmtF(spread))
	}

	// Flat strategies.
	for _, strat := range []partition.Strategy{partition.SCOC, partition.MCTL} {
		r, err := partition.PartitionMesh(context.Background(), m, domains, strat, partition.Options{Seed: 9})
		if err != nil {
			log.Fatal(err)
		}
		show("flat "+strat.String(), r.Part, flusim.BlockMap(domains, procs))
	}

	// Dual phase.
	dp, err := partition.DualPhase(context.Background(), m, procs, domainsPerProc, partition.Options{Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	show("dual-phase MC_TL→SC_OC", dp.Domain, dp.ProcOfDomain)

	fmt.Println("\nreading: dual-phase keeps MC_TL's per-level balance across processes")
	fmt.Println("while cutting the inter-process communication that flat MC_TL pays at")
	fmt.Println("fine granularity — the compromise the paper's perspective describes.")
}

func fmtF(v []float64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.2f", x)
	}
	return s + "]"
}
