package experiments

import (
	"context"
	"fmt"
	"strings"

	"tempart/internal/core"
	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/metrics"
	"tempart/internal/partition"
	"tempart/internal/taskgraph"
	"tempart/internal/temporal"
)

// fig7Cluster is the Figures 7/10 configuration: CYLINDER, 16 processes of
// 32 cores, 16 domains (1 per process).
var fig7Cluster = core.Cluster{NumProcs: 16, WorkersPerProc: 32}

const fig7Domains = 16

// DomainCharacteristics carries the two panels of Figures 7 and 10: the
// per-process operating-cost split by temporal level (a) and the per-process
// busy time by subiteration (b).
type DomainCharacteristics struct {
	Strategy string
	// CostByLevel[proc][τ].
	CostByLevel [][]int64
	// BusyBySub[proc][sub].
	BusyBySub [][]int64
	// LevelSpread[τ] = max-over-procs / mean of CostByLevel column τ.
	LevelSpread []float64
	Makespan    int64
}

func domainCharacteristics(p Params, strat partition.Strategy) (*DomainCharacteristics, error) {
	m, err := core.LoadMesh("CYLINDER", p.Scale)
	if err != nil {
		return nil, err
	}
	d, err := core.Decompose(context.Background(), m, fig7Domains, strat, partition.Options{Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	procOf := flusim.BlockMap(fig7Domains, fig7Cluster.NumProcs)
	sim, err := d.Simulate(flusim.Config{Cluster: fig7Cluster, RecordTrace: true})
	if err != nil {
		return nil, err
	}
	cost := metrics.CostByLevelPerProc(m, d.Result.Part, procOf, fig7Cluster.NumProcs)
	return &DomainCharacteristics{
		Strategy:    strat.String(),
		CostByLevel: cost,
		BusyBySub:   sim.Trace.BusyBySubiteration(m.Scheme().NumSubiterations()),
		LevelSpread: metrics.LevelSpread(cost),
		Makespan:    sim.Makespan,
	}, nil
}

func (r *DomainCharacteristics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CYLINDER, %d procs × %d cores, %d domains, %s\n",
		fig7Cluster.NumProcs, fig7Cluster.WorkersPerProc, fig7Domains, r.Strategy)
	fmt.Fprintf(&b, "makespan: %d units\n", r.Makespan)
	fmt.Fprintf(&b, "\n(a) operating cost by temporal level per process\n%s", metrics.FormatCostTable(r.CostByLevel))
	fmt.Fprintf(&b, "level spread (max/mean per τ, 1.0 = even): ")
	for τ, s := range r.LevelSpread {
		fmt.Fprintf(&b, "τ%d=%.2f ", τ, s)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "\n(b) busy time by subiteration per process\n")
	fmt.Fprintf(&b, "proc")
	if len(r.BusyBySub) > 0 {
		for s := range r.BusyBySub[0] {
			fmt.Fprintf(&b, "\tsub%d", s)
		}
	}
	b.WriteByte('\n')
	for p, row := range r.BusyBySub {
		fmt.Fprintf(&b, "%4d", p)
		for _, v := range row {
			fmt.Fprintf(&b, "\t%d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig7 shows SC_OC's skew: balanced totals, segregated levels, subiteration
// starvation.
func Fig7(p Params) (*DomainCharacteristics, error) {
	p = p.withDefaults()
	r, err := domainCharacteristics(p, partition.SCOC)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Fig10 is Fig7's counterpart under MC_TL: every level spread near 1.
func Fig10(p Params) (*DomainCharacteristics, error) {
	p = p.withDefaults()
	return domainCharacteristics(p, partition.MCTL)
}

// Fig8Result contrasts task-graph generation for the first subiteration on a
// two-domain toy mesh partitioned level-segregating vs level-balancing.
type Fig8Result struct {
	// SegTasks / BalTasks count first-subiteration tasks per phase level.
	SegTasksByPhase map[temporal.Level]int
	BalTasksByPhase map[temporal.Level]int
	SegFirstPhase   int
	BalFirstPhase   int
}

// Fig8 reproduces the illustration with a 3-level strip mesh.
func Fig8(Params) (*Fig8Result, error) {
	levels := []temporal.Level{0, 0, 1, 1, 2, 2, 2, 2, 1, 1, 0, 0}
	m := mesh.Strip(levels)
	segPart := []int32{0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0} // domain 1 = all τ2
	balPart := []int32{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1} // mirror halves

	count := func(part []int32) (map[temporal.Level]int, int, error) {
		tg, err := taskgraph.Build(m, part, 2, taskgraph.Options{})
		if err != nil {
			return nil, 0, err
		}
		by := map[temporal.Level]int{}
		for i := range tg.Tasks {
			if tg.Tasks[i].Sub == 0 {
				by[tg.Tasks[i].Tau]++
			}
		}
		return by, by[m.MaxLevel], nil
	}
	r := &Fig8Result{}
	var err error
	if r.SegTasksByPhase, r.SegFirstPhase, err = count(segPart); err != nil {
		return nil, err
	}
	if r.BalTasksByPhase, r.BalFirstPhase, err = count(balPart); err != nil {
		return nil, err
	}
	return r, nil
}

// String renders the per-phase task counts.
func (r *Fig8Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 8 — first-subiteration task generation, 2 domains, 3-level toy mesh\n")
	write := func(label string, by map[temporal.Level]int) {
		fmt.Fprintf(&b, "%-22s", label)
		for τ := temporal.Level(2); ; τ-- {
			fmt.Fprintf(&b, "  phase τ%d: %d tasks", τ, by[τ])
			if τ == 0 {
				break
			}
		}
		b.WriteByte('\n')
	}
	write("SC_OC-like (segregated)", r.SegTasksByPhase)
	write("MC_TL-like (balanced)", r.BalTasksByPhase)
	fmt.Fprintf(&b, "first phase (τ=2) tasks: %d vs %d — balancing multiplies first-phase parallelism\n",
		r.SegFirstPhase, r.BalFirstPhase)
	return b.String()
}
