// Package partition implements the multilevel graph partitioner at the heart
// of the paper's contribution. It supports single-constraint and
// multi-constraint vertex weights, which is what distinguishes the baseline
// SC_OC strategy (balance one operating-cost weight) from the proposed MC_TL
// strategy (balance one binary constraint per temporal level).
//
// The partitioner follows the classical multilevel scheme used by METIS
// (Karypis & Kumar): heavy-edge-matching coarsening, a greedy-graph-growing
// initial bisection that is aware of all constraints, and multi-constraint
// Fiduccia–Mattheyses boundary refinement during uncoarsening. k-way
// partitions are produced by recursive bisection, which the paper reports
// gives higher quality than direct k-way on these meshes.
package partition

import (
	"context"
	"fmt"
	"math"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// Options controls the multilevel partitioner.
type Options struct {
	// Seed makes runs reproducible. The zero value is a valid seed.
	Seed int64
	// ImbalanceTol is the per-constraint balance tolerance: every part must
	// satisfy weight ≤ ImbalanceTol · ideal (plus one-vertex slack).
	// Defaults to 1.05.
	ImbalanceTol float64
	// CoarsenTo stops coarsening once the graph has at most this many
	// vertices. Defaults to 128 per constraint.
	CoarsenTo int
	// InitTrials is the number of greedy-graph-growing attempts for the
	// coarsest bisection; the best (balance, cut) result wins. Defaults 8.
	InitTrials int
	// RefinePasses bounds FM passes per uncoarsening level. Defaults 8.
	RefinePasses int
	// Method selects recursive bisection (default) or direct k-way.
	Method Method
	// Trials > 1 runs the whole construction that many times with derived
	// seeds and keeps the best result (smallest max imbalance, then edge
	// cut). Partitioning is cheap relative to a simulation campaign, so a
	// handful of trials is a robust quality lever.
	Trials int
	// Parallelism bounds the worker goroutines the construction may use
	// (recursive-bisection fan-out, sharded matching and contraction,
	// pairwise k-way refinement). Values <= 0 mean GOMAXPROCS; 1 forces
	// serial execution. For a given Seed the result is bit-identical at
	// every Parallelism setting: every subtree of the bisection tree draws
	// from an RNG seeded purely by its position in the tree, never by
	// scheduling order, and parallel refinement commits moves in a fixed
	// serial order.
	Parallelism int

	// streamMinVerts overrides the streaming floor (streamMinVertices) so
	// tests can force spilling on tiny meshes or disable it entirely; zero
	// means the default.
	streamMinVerts int
}

func (o Options) withDefaults(ncon int) Options {
	if o.ImbalanceTol <= 1 {
		o.ImbalanceTol = 1.05
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 128 * ncon
	}
	if o.InitTrials <= 0 {
		o.InitTrials = 8
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 8
	}
	return o
}

// Result describes a k-way partition of a graph. The JSON tags (and the
// binary Encode/Decode pair in io.go) exist so results can be persisted and
// shipped between processes — tempartd stores encoded results to warm-start
// incremental repartitions.
type Result struct {
	// Part maps each vertex to its part in [0, NumParts).
	Part []int32 `json:"part"`
	// NumParts is k.
	NumParts int `json:"num_parts"`
	// PartWeights[p][c] is the total weight of constraint c in part p.
	PartWeights [][]int64 `json:"part_weights"`
	// EdgeCut is the total weight of edges whose endpoints lie in
	// different parts.
	EdgeCut int64 `json:"edge_cut"`
}

// Imbalance returns, for each constraint, max_p PartWeights[p][c] / ideal,
// where ideal = total[c]/k. A perfectly balanced constraint scores 1.0.
// Constraints with zero total weight score 1.0.
func (r *Result) Imbalance() []float64 {
	if r.NumParts == 0 {
		return nil
	}
	ncon := len(r.PartWeights[0])
	out := make([]float64, ncon)
	for c := 0; c < ncon; c++ {
		var tot, max int64
		for p := 0; p < r.NumParts; p++ {
			w := r.PartWeights[p][c]
			tot += w
			if w > max {
				max = w
			}
		}
		if tot == 0 {
			out[c] = 1
			continue
		}
		ideal := float64(tot) / float64(r.NumParts)
		out[c] = float64(max) / ideal
	}
	return out
}

// MaxImbalance returns the worst per-constraint imbalance.
func (r *Result) MaxImbalance() float64 {
	worst := 1.0
	for _, v := range r.Imbalance() {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// NewResult computes part weights and edge cut for an existing assignment.
func NewResult(g *graph.Graph, part []int32, k int) *Result {
	r := &Result{Part: part, NumParts: k, PartWeights: partWeights(g, part, k)}
	r.EdgeCut = ComputeEdgeCut(g, part)
	return r
}

// MaxImbalanceOf is NewResult(g, part, k).MaxImbalance() without the O(m)
// edge-cut pass: what a balance check needs and nothing more.
func MaxImbalanceOf(g *graph.Graph, part []int32, k int) float64 {
	r := Result{NumParts: k, PartWeights: partWeights(g, part, k)}
	return r.MaxImbalance()
}

func partWeights(g *graph.Graph, part []int32, k int) [][]int64 {
	ncon := g.NCon
	flat := make([]int64, k*ncon)
	pw := make([][]int64, k)
	for p := range pw {
		pw[p] = flat[p*ncon : (p+1)*ncon : (p+1)*ncon]
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		dst := pw[part[v]]
		for c, w := range g.WeightVec(int32(v)) {
			dst[c] += int64(w)
		}
	}
	return pw
}

// ComputeEdgeCut returns the total weight of cut edges under the assignment.
func ComputeEdgeCut(g *graph.Graph, part []int32) int64 {
	var cut int64
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		pv := part[v]
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			if part[g.Adjncy[i]] != pv {
				cut += int64(g.AdjWgt[i])
			}
		}
	}
	return cut / 2
}

// checkLabels reports the first assignment outside [0, k).
func checkLabels(part []int32, k int) error {
	for v, p := range part {
		if p < 0 || int(p) >= k {
			return fmt.Errorf("partition: vertex %d in part %d, want [0,%d)", v, p, k)
		}
	}
	return nil
}

// Validate checks that the assignment is a complete partition into k parts.
func (r *Result) Validate(g *graph.Graph) error {
	if len(r.Part) != g.NumVertices() {
		return fmt.Errorf("partition: %d assignments for %d vertices", len(r.Part), g.NumVertices())
	}
	if err := checkLabels(r.Part, r.NumParts); err != nil {
		return err
	}
	seen := make([]bool, r.NumParts)
	for _, p := range r.Part {
		seen[p] = true
	}
	for p, ok := range seen {
		if !ok && g.NumVertices() >= r.NumParts {
			return fmt.Errorf("partition: part %d is empty", p)
		}
	}
	return nil
}

// Partition computes a k-way partition with the method selected in opt
// (multilevel recursive bisection by default). It is the main entry point of
// the package. Cancelling ctx stops the construction at the next trial,
// coarsening or refinement boundary and returns ctx's error.
//
// When ctx carries an obs recorder the construction emits hierarchical spans
// (root "partition", per-level "partition/coarsen" with match/contract
// children, "partition/initial", "partition/refine" with per-FM-pass cut and
// violation). Instrumentation never touches the RNG streams, so results stay
// bit-identical whether or not anyone is tracing.
func Partition(ctx context.Context, g *graph.Graph, k int, opt Options) (*Result, error) {
	span := obs.StartSpan(ctx, "partition")
	if span.Active() {
		span.SetInt("k", int64(k))
		span.SetInt("vertices", int64(g.NumVertices()))
		span.SetInt("constraints", int64(g.NCon))
		span.SetStr("method", opt.Method.String())
		span.SetInt("seed", opt.Seed)
		ctx = obs.ContextWithSpan(ctx, span)
	}
	res, err := partitionTrials(ctx, g, k, opt)
	if span.Active() && res != nil {
		span.SetInt("edge_cut", res.EdgeCut)
		span.SetFloat("imbalance", res.MaxImbalance())
	}
	span.End()
	return res, err
}

// partitionTrials runs the trials loop around the selected construction.
func partitionTrials(ctx context.Context, g *graph.Graph, k int, opt Options) (*Result, error) {
	construct := partitionRB
	if opt.Method == DirectKWay {
		construct = PartitionKWay
	}
	trials := opt.Trials
	if trials <= 1 {
		return construct(ctx, g, k, opt)
	}
	var best *Result
	for t := 0; t < trials; t++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
		o := opt
		o.Trials = 0
		o.Seed = opt.Seed + int64(t)*1_000_003
		r, err := construct(ctx, g, k, o)
		if err != nil {
			return nil, err
		}
		obs.FromContext(ctx).Count("partition.trials", 1)
		if best == nil || betterResult(r, best) {
			best = r
		}
	}
	return best, nil
}

// betterResult orders results by (max imbalance, edge cut).
func betterResult(a, b *Result) bool {
	ia, ib := a.MaxImbalance(), b.MaxImbalance()
	const eps = 1e-9
	if ia < ib-eps {
		return true
	}
	if ia > ib+eps {
		return false
	}
	return a.EdgeCut < b.EdgeCut
}

// partitionRB is the recursive-bisection construction.
func partitionRB(ctx context.Context, g *graph.Graph, k int, opt Options) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k = %d, want >= 1", k)
	}
	n := g.NumVertices()
	if k > 1 && n > k && ctx.Err() == nil {
		opt = opt.withDefaults(g.NCon)
		pool := graph.NewPool(opt.Parallelism)
		// The root bisection runs before part or the identity vertex list
		// exist: both arrays are dead weight during the root's coarsening,
		// which is the peak-memory moment of the whole partition (see
		// rootBisect). They are materialized right after, for the subtrees.
		left, right := rootBisect(ctx, g, k, opt, pool)
		part := make([]int32, n)
		pool.Fork(
			func() {
				recursiveBisect(ctx, g, left.Vertices, left.FirstPart, left.K, part, opt, left.Seed, pool)
			},
			func() {
				recursiveBisect(ctx, g, right.Vertices, right.FirstPart, right.K, part, opt, right.Seed, pool)
			},
		)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
		PolishRB(ctx, g, part, k, opt)
		return NewResult(g, part, k), nil
	}
	// Base cases (k == 1, degenerate n <= k, pre-cancelled ctx): identical to
	// what recursiveBisect's commitBaseCase produces over identity vertices.
	part := make([]int32, n)
	if k > 1 && ctx.Err() == nil {
		for i := range part {
			part[i] = int32(i % k)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	r := NewResult(g, part, k)
	return r, nil
}

// rbPolishPasses bounds the cross-boundary passes concluding RB construction.
const rbPolishPasses = 2

// PolishRB runs the cross-boundary polish that concludes recursive-bisection
// construction: recursive bisection never reconsiders a cut once a subtree
// splits, so a few pairwise k-way FM passes over the finished assignment
// recover cut the recursion left between sibling subtrees. It is part of
// Partition's RB pipeline and exported for one reason: a coordinator that
// stitches SubtreeTask results (see SplitSubtrees) must apply the same
// polish to the assembled assignment to reproduce Partition byte-for-byte.
// Deterministic at every opt.Parallelism; returns the number of moves.
func PolishRB(ctx context.Context, g *graph.Graph, part []int32, k int, opt Options) int {
	if k < 2 {
		return 0
	}
	opt = opt.withDefaults(g.NCon)
	pool := graph.NewPool(opt.Parallelism)
	pspan := obs.StartSpan(ctx, "partition/refine")
	caps := kwayCaps(g, k, opt.ImbalanceTol)
	st := kwayRefine(ctx, g, part, k, caps, rbPolishPasses, pool)
	pspan.SetStr("stage", "rb_polish")
	st.annotate(pspan)
	pspan.End()
	return st.moves
}

// balanceCaps returns, per constraint, the maximum side weight allowed for a
// side targeting the given fraction of the totals: floor(tol·frac·tot),
// raised to ceil(ideal) (pigeonhole feasibility) and to the heaviest single
// vertex (indivisibility feasibility).
func balanceCaps(tot []int64, frac float64, tol float64, maxVwgt []int64) []int64 {
	caps := make([]int64, len(tot))
	for c := range tot {
		ideal := float64(tot[c]) * frac
		cap := int64(ideal * tol)
		if feasible := int64(math.Ceil(ideal - 1e-9)); feasible > cap {
			cap = feasible
		}
		if maxVwgt[c] > cap {
			cap = maxVwgt[c]
		}
		caps[c] = cap
	}
	return caps
}

// maxVertexWeights returns the per-constraint maximum vertex weight.
func maxVertexWeights(g *graph.Graph) []int64 {
	out := make([]int64, g.NCon)
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		for c := 0; c < g.NCon; c++ {
			if w := int64(g.Weight(int32(v), c)); w > out[c] {
				out[c] = w
			}
		}
	}
	return out
}
