// Package repart implements incremental multi-constraint repartitioning.
//
// The temporal-adaptive solver periodically recomputes cell time levels as
// the flow evolves; a partition that balanced every level when it was built
// drifts out of balance as levels migrate through the mesh. Recomputing a
// partition from scratch restores balance but relabels most of the mesh,
// forcing almost every cell's state to move between domains. This package
// restores per-level balance while keeping cells where they already live:
// the objective is minimal migration volume (cells that change domain,
// weighted by their serialized size) subject to the same balance tolerance
// as the original partition.
//
// Two incremental strategies are provided behind one entry point:
//
//   - Refine: warm-started multilevel refinement. The dual graph is
//     coarsened with matching restricted to the old parts (so the old
//     assignment projects exactly onto every level), then the greedy
//     multi-constraint boundary passes of one partition.Refiner run
//     coarsest-to-finest with a migration-penalty term biasing moves toward
//     cells that are cheap to ship.
//
//   - Diffuse: a diffusive fallback that shifts boundary cells of
//     overloaded parts to adjacent parts, judging each move by the overage
//     summed over all constraints, then polishes the edge cut with the same
//     penalty-biased greedy refinement. Cheaper than Refine and sufficient
//     for small drift.
//
// Auto (the default) picks a strategy from the measured drift: partitions
// still inside tolerance are kept untouched, mild drift diffuses, heavy
// drift warm-starts multilevel refinement, and pathological drift falls back
// to partitioning from scratch (with a relabeling step that maximises
// overlap with the old parts so even the scratch path migrates no more than
// it must).
package repart

import (
	"context"
	"fmt"
	"math"
	"slices"

	"tempart/internal/graph"
	"tempart/internal/metrics"
	"tempart/internal/obs"
	"tempart/internal/partition"
)

// Mode selects the repartitioning strategy.
type Mode int

const (
	// Auto picks a mode from the measured imbalance of the old assignment
	// on the new graph (see package comment).
	Auto Mode = iota
	// Keep returns the old assignment unchanged (weights recomputed).
	Keep
	// Diffuse shifts boundary cells from overloaded to underloaded parts,
	// then polishes with penalty-biased refinement.
	Diffuse
	// Refine runs warm-started multilevel refinement from the old
	// assignment.
	Refine
	// Scratch partitions from scratch, then relabels parts to maximise
	// overlap with the old assignment.
	Scratch
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case Keep:
		return "keep"
	case Diffuse:
		return "diffuse"
	case Refine:
		return "refine"
	case Scratch:
		return "scratch"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode is the inverse of String.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{Auto, Keep, Diffuse, Refine, Scratch} {
		if m.String() == s {
			return m, nil
		}
	}
	return Auto, fmt.Errorf("repart: unknown mode %q (want auto, keep, diffuse, refine or scratch)", s)
}

// Options controls Repartition.
type Options struct {
	// Mode selects the strategy; Auto (the default) decides per call.
	Mode Mode
	// Part carries the underlying partitioner options (seed, tolerance,
	// refinement passes). The tolerance doubles as the repartitioner's
	// balance target. RefinePasses bounds the greedy passes of every warm
	// refinement, but they stop sooner by balance (partition.RefineOptions
	// .Passes), and the finest level's refinement and the diffusion polish
	// run at most two passes whatever it says.
	Part partition.Options
	// MigrationPenalty scales how strongly refinement resists moving cells
	// off their current domain, in units of the mean incident edge weight.
	// 0 uses the default (0.5); negative (-Inf included) disables the
	// penalty; NaN and +Inf are errors. Large values saturate: no cell's
	// penalty exceeds maxPenaltySum / cells (see penalties).
	MigrationPenalty float64
	// MigBytes[v], when set, is the serialized size of cell v — the cost of
	// migrating it. Nil treats all cells as equally expensive.
	MigBytes []int64
}

// The Auto policy's imbalance cut-points: drift at or below diffuseThreshold
// diffuses, above scratchThreshold partitions from scratch, in between
// warm-starts multilevel refinement.
const (
	diffuseThreshold = 1.30
	scratchThreshold = 8.0
)

func (o Options) withDefaults() Options {
	if o.MigrationPenalty == 0 {
		o.MigrationPenalty = 0.5
	}
	if o.Part.ImbalanceTol <= 1 {
		o.Part.ImbalanceTol = partition.DefaultImbalanceTol
	}
	return o
}

// Result is a repartition outcome: the new partition, the strategy that
// produced it, and the migration it implies relative to the old assignment.
type Result struct {
	*partition.Result
	// Mode is the strategy actually used (never Auto).
	Mode Mode
	// Stats quantifies the migration from the old to the new assignment.
	Stats metrics.MigrationStats
}

// Repartition computes a new k-way assignment for g starting from old. The
// graph must describe the same cells as old (typically the dual graph after
// mesh.ReassignLevels changed the vertex weights); old.Part is never
// modified. Cancelling ctx stops at the next strategy-internal boundary and
// returns the context error.
func Repartition(ctx context.Context, g *graph.Graph, old *partition.Result, opt Options) (*Result, error) {
	n := g.NumVertices()
	k := old.NumParts
	if len(old.Part) != n {
		return nil, fmt.Errorf("repart: old assignment has %d cells, graph has %d", len(old.Part), n)
	}
	if k < 1 {
		return nil, fmt.Errorf("repart: k = %d, want >= 1", k)
	}
	for v, p := range old.Part {
		if p < 0 || int(p) >= k {
			return nil, fmt.Errorf("repart: old assignment puts cell %d in part %d, want [0,%d)", v, p, k)
		}
	}
	if opt.MigBytes != nil && len(opt.MigBytes) != n {
		return nil, fmt.Errorf("repart: %d migration weights for %d cells", len(opt.MigBytes), n)
	}
	if math.IsNaN(opt.MigrationPenalty) || math.IsInf(opt.MigrationPenalty, 1) {
		return nil, fmt.Errorf("repart: migration penalty %v, want a finite value", opt.MigrationPenalty)
	}
	opt = opt.withDefaults()

	span := obs.StartSpan(ctx, "repart")
	if span.Active() {
		span.SetStr("mode_requested", opt.Mode.String())
		span.SetInt("k", int64(k))
		span.SetInt("vertices", int64(n))
		ctx = obs.ContextWithSpan(ctx, span)
	}

	imbBefore := math.NaN()
	mode := opt.Mode
	if mode == Auto || span.Active() {
		imbBefore = partition.MaxImbalanceOf(g, old.Part, k)
	}
	if mode == Auto {
		switch {
		case imbBefore <= opt.Part.ImbalanceTol:
			mode = Keep
		case imbBefore <= diffuseThreshold:
			mode = Diffuse
		case imbBefore <= scratchThreshold:
			mode = Refine
		default:
			mode = Scratch
		}
	}
	if span.Active() {
		span.SetStr("mode", mode.String())
		span.SetFloat("imbalance_before", imbBefore)
	}

	var pres *partition.Result
	var err error
	switch mode {
	case Keep:
		pres = partition.NewResult(g, slices.Clone(old.Part), k)
	case Diffuse, Refine:
		pres, err = repair(ctx, g, slices.Clone(old.Part), k, opt, mode)
	case Scratch:
		pres, err = scratch(ctx, g, old.Part, k, opt)
	default:
		err = fmt.Errorf("repart: unknown mode %v", opt.Mode)
	}
	if err != nil {
		span.End()
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		span.End()
		return nil, fmt.Errorf("repart: %w", err)
	}

	res := &Result{
		Result: pres,
		Mode:   mode,
		Stats:  metrics.ComputeMigrationStats(old.Part, pres.Part, k, opt.MigBytes),
	}
	if span.Active() {
		span.SetFloat("imbalance_after", res.MaxImbalance())
		span.SetInt("edge_cut", res.EdgeCut)
		span.SetInt("moved_cells", int64(res.Stats.MovedCells))
		span.SetInt("moved_bytes", res.Stats.MovedBytes)
	}
	span.End()
	return res, nil
}

// repair runs a warm mode, Diffuse or Refine, on part in place with one
// refiner, and returns the Result of the refiner's live table: its part
// weights and the edge cut of its rows, equal to NewResult's without the
// rescan.
func repair(ctx context.Context, g *graph.Graph, part []int32, k int, opt Options, mode Mode) (*partition.Result, error) {
	r, err := partition.NewRefiner(g, part, k, refineOptions(opt))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if mode == Diffuse {
		if err = r.Begin(g, part); err == nil {
			err = diffuse(ctx, g, part, k, opt, r, penalties(g, opt))
		}
	} else {
		err = refineWarm(ctx, g, part, k, opt, r)
	}
	if err != nil {
		return nil, err
	}
	return r.Result(), nil
}

// maxPenaltySum bounds the sum of one call's migration penalties. The
// warm-start hierarchy adds the penalties of the cells a coarse vertex
// holds, and refinement adds a penalty to a cut gain, whose magnitude is at
// most the graph's total edge weight (below 2^62: int32 weights on
// int32-indexed adjacency). Keeping every penalty sum at or below 2^61 keeps
// that arithmetic inside int64.
const maxPenaltySum = 1 << 61

// penalties converts migration byte costs into refinement-gain units:
// pen[v] = MigrationPenalty · wbar · MigBytes[v]/migbar, floored at 1 and
// saturated at maxPenaltySum / n, where wbar is the mean incident edge
// weight. This keeps the penalty commensurate with edge-cut gains
// regardless of the byte scale, so one option value behaves consistently
// across meshes. A negative MigrationPenalty disables the bias: the result
// is nil, which every consumer (the diffusive sweep's cost ordering and
// Refiner.Refine) treats as zero penalty.
func penalties(g *graph.Graph, opt Options) []int64 {
	if opt.MigrationPenalty < 0 {
		return nil
	}
	n := g.NumVertices()
	var totalEdge float64
	for _, w := range g.AdjWgt {
		totalEdge += float64(w)
	}
	wbar := 1.0
	if n > 0 && totalEdge > 0 {
		wbar = totalEdge / float64(n)
	}
	migbar := 1.0
	if opt.MigBytes != nil {
		var tot float64
		for _, b := range opt.MigBytes {
			tot += float64(b)
		}
		if n > 0 && tot > 0 {
			migbar = tot / float64(n)
		}
	}
	pen := make([]int64, n)
	top := penaltyCap(n)
	for v := range pen {
		mig := 1.0
		if opt.MigBytes != nil {
			mig = float64(opt.MigBytes[v])
		}
		p := top
		if f := math.Round(opt.MigrationPenalty * wbar * mig / migbar); f < float64(top) {
			p = max(int64(f), 1)
		}
		pen[v] = p
	}
	return pen
}

// penaltyCap is the largest per-cell penalty on a graph of n cells.
func penaltyCap(n int) int64 {
	return maxPenaltySum / int64(max(n, 1))
}

// scratch partitions from scratch and then relabels the new parts to
// maximise byte overlap with the old assignment, so even the fallback path
// migrates only what the fresh partition forces. The relabel is a
// permutation, so the fresh part weights, permuted, and the fresh edge cut
// describe the relabelled assignment.
func scratch(ctx context.Context, g *graph.Graph, oldPart []int32, k int, opt Options) (*partition.Result, error) {
	fresh, err := partition.Partition(ctx, g, k, opt.Part)
	if err != nil {
		return nil, err
	}
	part := fresh.Part
	relabel := overlapRelabel(oldPart, part, k, opt.MigBytes)
	for v := range part {
		part[v] = relabel[part[v]]
	}
	pw := make([][]int64, k)
	for p, w := range fresh.PartWeights {
		pw[relabel[p]] = w
	}
	fresh.PartWeights = pw
	return fresh, nil
}

// overlapRelabel greedily maps new part labels onto old ones by descending
// shared byte volume: the (new, old) pair with the largest overlap binds
// first, and so on until every new label has an old one. Unmatched labels
// keep distinct spare ids. The result is a permutation new→old.
func overlapRelabel(oldPart, newPart []int32, k int, bytes []int64) []int32 {
	overlap := make([][]int64, k)
	for p := range overlap {
		overlap[p] = make([]int64, k)
	}
	for v := range newPart {
		var b int64 = 1
		if bytes != nil {
			b = bytes[v]
		}
		overlap[newPart[v]][oldPart[v]] += b
	}
	relabel := make([]int32, k)
	for i := range relabel {
		relabel[i] = -1
	}
	usedOld := make([]bool, k)
	for range relabel {
		var bestNew, bestOld int32 = -1, -1
		var best int64 = -1
		for np := 0; np < k; np++ {
			if relabel[np] >= 0 {
				continue
			}
			for op := 0; op < k; op++ {
				if usedOld[op] {
					continue
				}
				if overlap[np][op] > best {
					best, bestNew, bestOld = overlap[np][op], int32(np), int32(op)
				}
			}
		}
		if bestNew < 0 {
			break
		}
		relabel[bestNew] = bestOld
		usedOld[bestOld] = true
	}
	return relabel
}
