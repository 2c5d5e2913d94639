package partition

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// Method selects the k-way construction algorithm.
type Method int

const (
	// RecursiveBisection builds the k-way partition by recursive 2-way
	// splits — the paper's choice ("it produces higher quality solutions on
	// our meshes").
	RecursiveBisection Method = iota
	// DirectKWay coarsens once, solves k-way on the coarsest graph by
	// recursive bisection, and uncoarsens with greedy k-way boundary
	// refinement — cheaper for large k, usually slightly worse cuts under
	// many constraints (the ablation BenchmarkAblationRBvsKWay quantifies
	// this trade-off).
	DirectKWay
)

// String implements fmt.Stringer.
func (m Method) String() string {
	if m == DirectKWay {
		return "kway"
	}
	return "rb"
}

// PartitionKWay computes a k-way partition with the direct k-way multilevel
// scheme. It honours the same Options as Partition. Cancelling ctx stops the
// construction at the next coarsening or refinement boundary.
func PartitionKWay(ctx context.Context, g *graph.Graph, k int, opt Options) (*Result, error) {
	if k < 1 {
		return nil, errBadK(k)
	}
	n := g.NumVertices()
	if k == 1 || n <= k {
		// Degenerate cases match the recursive-bisection behaviour.
		return partitionRB(ctx, g, k, opt)
	}
	opt = opt.withDefaults(g.NCon)
	rng := rand.New(rand.NewSource(opt.Seed))
	pool := graph.NewPool(opt.Parallelism)

	// Coarsen once, keeping enough coarse vertices for k parts.
	coarseTo := opt.CoarsenTo
	if min := 16 * k; coarseTo < min {
		coarseTo = min
	}
	sc := getScratch(n)
	h := coarsen(ctx, g, coarseTo, rng, pool, sc, streamFloor(opt))
	putScratch(sc)
	defer h.close()
	coarsest := h.coarsest()

	// Initial k-way on the coarsest graph via recursive bisection.
	part := make([]int32, coarsest.NumVertices())
	vertices := make([]int32, coarsest.NumVertices())
	for i := range vertices {
		vertices[i] = int32(i)
	}
	recursiveBisect(ctx, coarsest, vertices, 0, k, part, opt, opt.Seed, pool)

	// Uncoarsen with k-way refinement at every level. Spilled interior
	// rungs are reloaded one at a time and released after their pass.
	caps := kwayCaps(g, k, opt.ImbalanceTol)
	for li := h.levels() - 1; li >= 1; li-- {
		if ctx.Err() == nil {
			cg := h.graph(li)
			rspan := obs.StartSpan(ctx, "partition/refine")
			if rspan.Active() {
				rspan.SetInt("level", int64(li))
				rspan.SetInt("vertices", int64(cg.NumVertices()))
			}
			kwayRefine(ctx, cg, part, k, caps, opt.RefinePasses, pool).annotate(rspan)
			rspan.End()
		}
		part = projectAssignment(h.cmap(li), part)
		h.release(li)
	}
	// The walk is done loading; free the read-back buffers before the
	// finest level's refinement.
	h.dropReloadBuffers()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	rspan := obs.StartSpan(ctx, "partition/refine")
	if rspan.Active() {
		rspan.SetInt("level", 0)
		rspan.SetInt("vertices", int64(g.NumVertices()))
	}
	kwayRefine(ctx, g, part, k, caps, opt.RefinePasses, pool).annotate(rspan)
	rspan.End()

	return NewResult(g, part, k), nil
}

func errBadK(k int) error {
	return fmt.Errorf("partition: k = %d, want >= 1", k)
}

// kwayCaps returns per-part per-constraint weight caps (shared by all parts
// since targets are uniform).
func kwayCaps(g *graph.Graph, k int, tol float64) []int64 {
	return kwayCapsInto(nil, g, k, tol)
}

// kwayCapsInto is kwayCaps writing into dst (grown as needed), so pooled
// callers avoid the allocation. Totals and per-vertex maxima are accumulated
// in stack buffers so the steady-state path stays allocation-free.
func kwayCapsInto(dst []int64, g *graph.Graph, k int, tol float64) []int64 {
	ncon := g.NCon
	var totArr, maxArr [8]int64
	var tot, maxV []int64
	if ncon <= len(totArr) {
		tot, maxV = totArr[:ncon], maxArr[:ncon]
	} else {
		tot, maxV = make([]int64, ncon), make([]int64, ncon)
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		row := g.VWgt[v*ncon : (v+1)*ncon]
		for c, w := range row {
			tot[c] += int64(w)
			if int64(w) > maxV[c] {
				maxV[c] = int64(w)
			}
		}
	}
	caps := growI64(dst, ncon)
	for c := range tot {
		ideal := float64(tot[c]) / float64(k)
		cap := int64(ideal * tol)
		if feasible := int64(math.Ceil(ideal - 1e-9)); feasible > cap {
			cap = feasible
		}
		if maxV[c] > cap {
			cap = maxV[c]
		}
		caps[c] = cap
	}
	return caps
}

// moveBias skews refinement gains against moving a vertex off its origin
// part: leaving origin subtracts pen[v] from the move's gain, returning to
// origin adds it back, lateral moves between two non-origin parts are
// neutral. It is how incremental repartitioning (internal/repart) expresses
// "restore balance, but migrate as little data as possible" through
// RefineKWay's greedy passes. The zero moveBias is "unbiased".
type moveBias struct {
	origin []int32
	pen    []int64
}

// delta returns the gain adjustment for moving v from part `from` to `to`.
func (b moveBias) delta(v, from, to int32) int64 {
	switch b.origin[v] {
	case from:
		return -b.pen[v]
	case to:
		return b.pen[v]
	}
	return 0
}
