package metrics

import (
	"context"
	"strings"
	"testing"

	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/taskgraph"
	"tempart/internal/temporal"
)

func TestCostByLevelPerProc(t *testing.T) {
	m := mesh.Strip([]temporal.Level{0, 1, 2, 2})
	part := []int32{0, 0, 1, 1}
	proc := []int32{0, 1}
	cost := CostByLevelPerProc(m, part, proc, 2)
	// MaxLevel 2: costs 4,2,1. Proc 0: cell τ0 (4) + τ1 (2); proc 1: 2×τ2.
	if cost[0][0] != 4 || cost[0][1] != 2 || cost[0][2] != 0 {
		t.Errorf("proc 0 = %v, want [4 2 0]", cost[0])
	}
	if cost[1][0] != 0 || cost[1][1] != 0 || cost[1][2] != 2 {
		t.Errorf("proc 1 = %v, want [0 0 2]", cost[1])
	}
}

func TestCellsByLevelPerProc(t *testing.T) {
	m := mesh.Strip([]temporal.Level{0, 1, 2, 2})
	cells := CellsByLevelPerProc(m, []int32{0, 0, 1, 1}, []int32{0, 1}, 2)
	if cells[0][0] != 1 || cells[0][1] != 1 || cells[1][2] != 2 {
		t.Errorf("cells = %v", cells)
	}
}

func TestComputeTaskStats(t *testing.T) {
	m := mesh.Strip([]temporal.Level{0, 0, 1, 1})
	part := []int32{0, 0, 1, 1}
	tg, err := taskgraph.Build(m, part, 2, taskgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeTaskStats(tg)
	if st.NumTasks != tg.NumTasks() || st.TotalWork != tg.TotalWork() {
		t.Error("stats disagree with graph")
	}
	if st.MeanCost <= 0 || st.MaxCost <= 0 {
		t.Error("degenerate cost stats")
	}
	// τ=1 cells all in domain 1 → first phase touches 1 domain.
	if st.FirstPhaseDomains != 1 {
		t.Errorf("FirstPhaseDomains = %d, want 1", st.FirstPhaseDomains)
	}
}

func TestEvaluatePartitionShape(t *testing.T) {
	m := mesh.Cube(0.05)
	r, err := partition.PartitionMesh(context.Background(), m, 4, partition.MCTL, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := EvaluatePartition(m, r, "MC_TL")
	if q.NumDomains != 4 || q.Strategy != "MC_TL" {
		t.Error("metadata wrong")
	}
	if len(q.LevelImbalance) != m.Scheme().NumLevels() {
		t.Errorf("LevelImbalance has %d entries", len(q.LevelImbalance))
	}
	if len(q.Fragments) != 4 || q.MaxFragments() < 1 {
		t.Errorf("Fragments = %v", q.Fragments)
	}
}

func TestLevelSpread(t *testing.T) {
	costs := [][]int64{{4, 0}, {0, 4}}
	s := LevelSpread(costs)
	// Each level fully concentrated on one of two procs → spread 2.
	if s[0] != 2 || s[1] != 2 {
		t.Errorf("LevelSpread = %v, want [2 2]", s)
	}
	even := [][]int64{{2, 2}, {2, 2}}
	s = LevelSpread(even)
	if s[0] != 1 || s[1] != 1 {
		t.Errorf("LevelSpread even = %v, want [1 1]", s)
	}
}

func TestFormatCostTable(t *testing.T) {
	out := FormatCostTable([][]int64{{1, 2}, {3, 4}})
	if !strings.Contains(out, "τ=0") || !strings.Contains(out, "τ=1") {
		t.Errorf("missing headers: %q", out)
	}
	if !strings.Contains(out, "3") || !strings.Contains(out, "7") {
		t.Errorf("missing row data/totals: %q", out)
	}
}

func TestHaloStatsStrip(t *testing.T) {
	// 4-cell strip, 2 procs split in the middle: each proc needs exactly one
	// ghost (the neighbour across the cut) and exposes one border cell.
	m := mesh.Strip([]temporal.Level{0, 0, 0, 0})
	part := []int32{0, 0, 1, 1}
	h := ComputeHaloStats(m, part, []int32{0, 1}, 2)
	if h.Ghosts[0] != 1 || h.Ghosts[1] != 1 {
		t.Errorf("Ghosts = %v, want [1 1]", h.Ghosts)
	}
	if h.Border[0] != 1 || h.Border[1] != 1 {
		t.Errorf("Border = %v, want [1 1]", h.Border)
	}
	if h.Neighbors[0] != 1 || h.Neighbors[1] != 1 {
		t.Errorf("Neighbors = %v, want [1 1]", h.Neighbors)
	}
	if h.TotalGhosts() != 2 || h.MaxNeighbors() != 1 {
		t.Errorf("aggregates wrong: %v", h)
	}
}

func TestHaloStatsSameProcNoGhosts(t *testing.T) {
	m := mesh.Strip([]temporal.Level{0, 0, 0, 0})
	part := []int32{0, 1, 2, 3}
	h := ComputeHaloStats(m, part, []int32{0, 0, 0, 0}, 1)
	if h.TotalGhosts() != 0 {
		t.Errorf("same-proc decomposition has ghosts: %v", h.Ghosts)
	}
}

// TestHaloMCTLCostsMore: the memory-side counterpart of Fig 11b — MC_TL's
// fragmented domains need larger halos than SC_OC's compact ones. The gap
// widens with k (more parts, more fragmentation pressure from the per-level
// constraints); at small k improved refinement can close it to noise, so the
// test pins the regime where the effect is robust across seeds.
func TestHaloMCTLCostsMore(t *testing.T) {
	m := mesh.Cylinder(0.001)
	const k, procs = 64, 8
	pm := flusim.BlockMap(k, procs)
	halo := func(strat partition.Strategy) int64 {
		r, err := partition.PartitionMesh(context.Background(), m, k, strat, partition.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return ComputeHaloStats(m, r.Part, pm, procs).TotalGhosts()
	}
	sc, mc := halo(partition.SCOC), halo(partition.MCTL)
	if mc <= sc {
		t.Errorf("MC_TL halo %d not above SC_OC %d", mc, sc)
	}
	t.Logf("total ghosts: SC_OC=%d MC_TL=%d (%.1fx)", sc, mc, float64(mc)/float64(sc))
}
