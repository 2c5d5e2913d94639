package repart

import (
	"context"

	"tempart/internal/graph"
	"tempart/internal/obs"
	"tempart/internal/partition"
)

// refineWarm is the warm-started multilevel strategy: coarsen with matching
// restricted to the old parts, seed the coarsest graph with the projected
// old assignment, and refine coarsest-to-finest with the migration-penalty
// bias (partition.RefineRestricted). part is updated in place. r is the
// call's refiner, reserved for (g, part); its table is left live on them.
func refineWarm(ctx context.Context, g *graph.Graph, part []int32, k int, opt Options, r *partition.Refiner) error {
	span := obs.StartSpan(ctx, "repart/refine_warm")
	defer span.End()
	// Per-level child spans (repart/coarsen going down, repart/refine coming
	// back up) tile this one; see TestRefineWarmSpansTile.
	ctx = obs.ContextWithSpan(ctx, span)

	coarseTo := 8 * k
	if min := 128 * g.NCon; min > coarseTo {
		coarseTo = min
	}
	pen := penalties(g, opt)
	depth, coarsest, err := partition.RefineRestricted(ctx, r, g, part, partition.RestrictedOptions{
		Seed:      opt.Part.Seed,
		CoarsenTo: coarseTo,
		Pen:       pen,
		Span:      "repart",
	}, func(ctx context.Context, level int, origin []int32, pen []int64) error {
		passes := 0 // RefineOptions.Passes alone
		if level == 0 {
			passes = finestPasses
		}
		return r.Refine(ctx, origin, pen, passes)
	})
	// Warm-start depth: how many coarse levels the hierarchy reached before
	// refinement climbs back up.
	span.SetInt("depth", int64(depth))
	span.SetInt("coarse_vertices", int64(coarsest))
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Refinement can stall above tolerance when the drift concentrated a
	// level inside one part's interior (no boundary vertex of that level to
	// move). The diffusive sweep has no such restriction — finish with it
	// whenever residual imbalance remains, on the refiner's live table and
	// with the finest level's penalties.
	residual := r.MaxImbalance() > opt.Part.ImbalanceTol
	if residual {
		err = diffuse(ctx, g, part, k, opt, r, pen)
	}
	if span.Active() {
		var fired int64
		if residual {
			fired = 1
		}
		span.SetInt("residual_diffuse", fired)
		span.SetInt("table_builds", int64(r.TableBuilds()))
	}
	return err
}

// pooledCopy returns a copy of s in an array from the word pool.
func pooledCopy(s []int32) []int32 {
	return append(graph.GetWords(len(s))[:0], s...)
}
