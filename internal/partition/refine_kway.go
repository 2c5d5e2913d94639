package partition

import (
	"context"
	"fmt"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// RefineOptions controls RefineKWay.
type RefineOptions struct {
	// ImbalanceTol is the per-constraint balance tolerance (default 1.05).
	ImbalanceTol float64
	// Passes bounds the refinement sweeps (default 8).
	Passes int
	// Parallelism bounds the worker goroutines of the refinement engine
	// (<= 0: one per core). The refined assignment is byte-identical at
	// every setting; see Options.Parallelism.
	Parallelism int
	// Origin and MovePenalty, when both set (length = vertices), bias
	// refinement against migration: moving vertex v off Origin[v] reduces
	// the move's gain by MovePenalty[v] edge-weight units, and moving it
	// back to Origin[v] adds the same. Balance-restoring moves remain
	// admissible regardless of penalty — the bias steers which vertices
	// migrate, it never blocks rebalancing. Origin with a nil MovePenalty
	// is a zero bias: refinement runs unbiased.
	Origin      []int32
	MovePenalty []int64
}

// RefineKWay improves an existing k-way assignment in place with the
// multi-constraint pairwise-FM boundary refinement used by the direct k-way
// construction, optionally biased against migration (see RefineOptions).
// Cancelling ctx stops at the next pass boundary; the assignment is always
// left in a consistent (if less refined) state. Steady-state calls allocate
// nothing: every working buffer comes from pooled scratch arenas.
func RefineKWay(ctx context.Context, g *graph.Graph, part []int32, k int, opt RefineOptions) error {
	n := g.NumVertices()
	if len(part) != n {
		return fmt.Errorf("partition: %d assignments for %d vertices", len(part), n)
	}
	if k < 1 {
		return errBadK(k)
	}
	if err := checkLabels(part, k); err != nil {
		return err
	}
	if opt.ImbalanceTol <= 1 {
		opt.ImbalanceTol = 1.05
	}
	if opt.Passes <= 0 {
		opt.Passes = 8
	}
	var bias moveBias
	if opt.Origin != nil {
		if len(opt.Origin) != n {
			return fmt.Errorf("partition: origin length %d, want %d", len(opt.Origin), n)
		}
		if opt.MovePenalty != nil {
			if len(opt.MovePenalty) != n {
				return fmt.Errorf("partition: penalty length %d, want %d", len(opt.MovePenalty), n)
			}
			bias = moveBias{origin: opt.Origin, pen: opt.MovePenalty}
		}
	}
	pool := graph.NewPool(opt.Parallelism)
	ks := getKwayScratch(n)
	defer putKwayScratch(ks)
	span := obs.StartSpan(ctx, "partition/refine")
	ks.caps = kwayCapsInto(ks.caps, g, k, opt.ImbalanceTol)
	st := kwayRefineWith(ctx, g, part, k, ks.caps, opt.Passes, pool, bias, ks)
	span.SetStr("stage", "refine_kway")
	span.SetInt("vertices", int64(n))
	st.annotate(span)
	span.End()
	return nil
}
