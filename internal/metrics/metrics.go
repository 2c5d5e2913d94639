// Package metrics computes the evaluation quantities reported in the paper:
// per-process operating-cost distributions by temporal level (Figures 7a,
// 10a), partition quality summaries, and task-granularity statistics. The
// inter-process communication volume of Figure 11b is counted by the
// simulation itself (flusim.Result.CommVolume).
package metrics

import (
	"fmt"

	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/taskgraph"
)

// CostByLevelPerProc returns cost[proc][level]: the total operating cost
// (2^(τmax−τ) per cell) that each process holds at each temporal level —
// the data behind the paper's Figures 7a and 10a. procOfDomain maps domains
// to processes; part maps cells to domains.
func CostByLevelPerProc(m *mesh.Mesh, part, procOfDomain []int32, numProcs int) [][]int64 {
	scheme := m.Scheme()
	out := make([][]int64, numProcs)
	for p := range out {
		out[p] = make([]int64, scheme.NumLevels())
	}
	for c := 0; c < m.NumCells(); c++ {
		p := procOfDomain[part[c]]
		out[p][m.Level[c]] += int64(scheme.Cost(m.Level[c]))
	}
	return out
}

// CellsByLevelPerProc returns counts[proc][level]: the per-level cell census
// each process holds.
func CellsByLevelPerProc(m *mesh.Mesh, part, procOfDomain []int32, numProcs int) [][]int64 {
	out := make([][]int64, numProcs)
	for p := range out {
		out[p] = make([]int64, m.Scheme().NumLevels())
	}
	for c := 0; c < m.NumCells(); c++ {
		out[procOfDomain[part[c]]][m.Level[c]]++
	}
	return out
}

// TaskStats summarises a task graph's granularity.
type TaskStats struct {
	NumTasks     int
	NumDeps      int
	TotalWork    int64
	CriticalPath int64
	// MeanCost and MaxCost describe task granularity.
	MeanCost float64
	MaxCost  int64
	// ExternalShare is the fraction of tasks marked external.
	ExternalShare float64
	// FirstPhaseDomains counts distinct domains contributing tasks to the
	// first (coarsest) phase of subiteration 0 — the paper's Figure 8
	// phenomenon in one number.
	FirstPhaseDomains int
}

// ComputeTaskStats builds a TaskStats for the graph.
func ComputeTaskStats(tg *taskgraph.TaskGraph) TaskStats {
	st := TaskStats{
		NumTasks:     tg.NumTasks(),
		NumDeps:      tg.NumDeps(),
		TotalWork:    tg.TotalWork(),
		CriticalPath: tg.CriticalPath(),
	}
	if st.NumTasks == 0 {
		return st
	}
	ext := 0
	first := map[int32]bool{}
	maxLvl := tg.Scheme.MaxLevel
	for i := range tg.Tasks {
		t := &tg.Tasks[i]
		if t.Cost > st.MaxCost {
			st.MaxCost = t.Cost
		}
		if t.External {
			ext++
		}
		if t.Sub == 0 && t.Tau == maxLvl {
			first[t.Domain] = true
		}
	}
	st.MeanCost = float64(st.TotalWork) / float64(st.NumTasks)
	st.ExternalShare = float64(ext) / float64(st.NumTasks)
	st.FirstPhaseDomains = len(first)
	return st
}

// PartitionQuality aggregates the quality axes the paper discusses for one
// decomposition.
type PartitionQuality struct {
	Strategy     string  `json:"strategy"`
	NumDomains   int     `json:"num_domains"`
	EdgeCut      int64   `json:"edge_cut"`
	MaxImbalance float64 `json:"max_imbalance"`
	// LevelImbalance is the per-temporal-level census imbalance — the
	// quantity SC_OC leaves unbounded and MC_TL pins near 1.
	LevelImbalance []float64 `json:"level_imbalance"`
	// Fragments[d] is the number of connected components of domain d; the
	// disconnection artifact discussed in the paper's conclusion.
	Fragments []int `json:"fragments"`
}

// EvaluatePartition computes a PartitionQuality for a mesh decomposition.
func EvaluatePartition(m *mesh.Mesh, res *partition.Result, strategyLabel string) PartitionQuality {
	gl := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	levelRes := partition.NewResult(gl, res.Part, res.NumParts)
	return PartitionQuality{
		Strategy:       strategyLabel,
		NumDomains:     res.NumParts,
		EdgeCut:        res.EdgeCut,
		MaxImbalance:   res.MaxImbalance(),
		LevelImbalance: levelRes.Imbalance(),
		Fragments:      partition.CountFragments(gl, res.Part, res.NumParts),
	}
}

// MaxFragments returns the largest per-domain fragment count.
func (q PartitionQuality) MaxFragments() int {
	max := 0
	for _, f := range q.Fragments {
		if f > max {
			max = f
		}
	}
	return max
}

// FormatCostTable renders cost[proc][level] as an aligned text table, one
// row per process — the textual form of Figures 7a/10a.
func FormatCostTable(cost [][]int64) string {
	out := "proc"
	if len(cost) == 0 {
		return out + "\n"
	}
	for l := range cost[0] {
		out += fmt.Sprintf("\tτ=%d", l)
	}
	out += "\ttotal\n"
	for p, row := range cost {
		var tot int64
		out += fmt.Sprintf("%4d", p)
		for _, v := range row {
			out += fmt.Sprintf("\t%d", v)
			tot += v
		}
		out += fmt.Sprintf("\t%d\n", tot)
	}
	return out
}

// LevelSpread returns, for a per-proc-per-level matrix, the ratio
// max/mean per level — 1.0 everywhere means perfectly even distribution.
func LevelSpread(costs [][]int64) []float64 {
	if len(costs) == 0 {
		return nil
	}
	nl := len(costs[0])
	out := make([]float64, nl)
	for l := 0; l < nl; l++ {
		var tot, max int64
		for p := range costs {
			v := costs[p][l]
			tot += v
			if v > max {
				max = v
			}
		}
		if tot == 0 {
			out[l] = 1
			continue
		}
		mean := float64(tot) / float64(len(costs))
		out[l] = float64(max) / mean
	}
	return out
}
