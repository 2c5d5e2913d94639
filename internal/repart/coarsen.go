package repart

import (
	"context"
	"math/rand"

	"tempart/internal/graph"
	"tempart/internal/obs"
	"tempart/internal/partition"
)

// rlevel is one level of the warm-start hierarchy. origin and pen are the
// coarse projections of the fine assignment and migration penalties; because
// matching is part-restricted, every coarse vertex has a single well-defined
// origin part.
type rlevel struct {
	g      *graph.Graph
	cmap   []int32 // fine vertex → coarse vertex (nil on the finest level)
	origin []int32
	pen    []int64
}

// refineWarm is the warm-started multilevel strategy: coarsen with matching
// restricted to the old parts, seed the coarsest graph with the projected
// old assignment, and refine coarsest-to-finest with the migration-penalty
// bias. part is updated in place. The hierarchy's int32 arrays (coarse
// graphs, cmaps, origins, the visit order and the projected assignments)
// come from the graph package's word pool, and each goes back once the
// level it belongs to is refined and projected. r is the call's refiner,
// reserved for (g, part); its table is left live on them.
func refineWarm(ctx context.Context, g *graph.Graph, part []int32, k int, opt Options, r *partition.Refiner) error {
	span := obs.StartSpan(ctx, "repart/refine_warm")
	defer span.End()
	// Per-level child spans (repart/coarsen going down, repart/refine coming
	// back up) tile this one; see TestRefineWarmSpansTile.
	ctx = obs.ContextWithSpan(ctx, span)
	rng := rand.New(rand.NewSource(opt.Part.Seed))
	pool := graph.NewPool(opt.Part.Parallelism)

	coarseTo := 8 * k
	if min := 128 * g.NCon; min > coarseTo {
		coarseTo = min
	}

	levels := []rlevel{{g: g, origin: pooledCopy(part), pen: penalties(g, opt)}}
	order := graph.GetWords(g.NumVertices()) // matching visit order, reused per level
	defer graph.PutWords(order)
	for {
		cur := levels[len(levels)-1]
		n := cur.g.NumVertices()
		if n <= coarseTo || ctx.Err() != nil {
			break
		}
		cspan := obs.StartSpan(ctx, "repart/coarsen")
		cspan.SetInt("level", int64(len(levels)-1))
		cspan.SetInt("vertices", int64(n))
		cmap, ncoarse := matchWithinParts(cur.g, cur.origin, partition.Perm(order[:n], rng))
		cspan.SetInt("coarse_vertices", int64(ncoarse))
		if ncoarse > n*9/10 { // diminishing returns: stop below 10% shrink
			graph.PutWords(cmap)
			cspan.End()
			break
		}
		cg := cur.g.ContractP(cmap, ncoarse, pool)
		next := rlevel{g: cg, origin: graph.GetWords(ncoarse)}
		if cur.pen != nil {
			next.pen = make([]int64, ncoarse)
		}
		for v := 0; v < n; v++ {
			c := cmap[v]
			next.origin[c] = cur.origin[v]
			if cur.pen != nil {
				next.pen[c] += cur.pen[v]
			}
		}
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, next)
		cspan.End()
	}

	if span.Active() {
		// Warm-start depth: how many coarse levels the hierarchy reached
		// before refinement climbs back up.
		span.SetInt("depth", int64(len(levels)))
		span.SetInt("coarse_vertices", int64(levels[len(levels)-1].g.NumVertices()))
	}

	// The coarsest assignment is exactly the projected old assignment (the
	// warm start); refine it at every level on the way back up, with one
	// refiner whose arena is reserved for the finest level. The finest
	// level is refined in part itself, so the refiner's table stays live on
	// (g, part) for the residual diffusion and the caller's Result.
	cur := part
	if len(levels) > 1 {
		cur = pooledCopy(levels[len(levels)-1].origin)
	}
	for li := len(levels) - 1; li >= 0; li-- {
		lv := levels[li]
		rspan := obs.StartSpan(ctx, "repart/refine")
		rspan.SetInt("level", int64(li))
		passes := 0 // RefineOptions.Passes alone
		if li == 0 {
			passes = finestPasses
		}
		err := r.Begin(lv.g, cur)
		if err == nil {
			err = r.Refine(obs.ContextWithSpan(ctx, rspan), lv.origin, lv.pen, passes)
		}
		if err != nil {
			rspan.End()
			return err
		}
		if li > 0 {
			fine := levels[li-1]
			next := part
			if li > 1 {
				next = graph.GetWords(fine.g.NumVertices())
			}
			for v := range next {
				next[v] = cur[fine.cmap[v]]
			}
			graph.PutWords(cur)
			cur = next
			// Level li is refined and projected: nothing reads it, its
			// origin or the cmap onto it again.
			lv.g.Release()
			graph.PutWords(lv.origin)
			graph.PutWords(fine.cmap)
		}
		rspan.End()
	}
	graph.PutWords(levels[0].origin)
	if err := ctx.Err(); err != nil {
		return err
	}
	// Refinement can stall above tolerance when the drift concentrated a
	// level inside one part's interior (no boundary vertex of that level to
	// move). The diffusive sweep has no such restriction — finish with it
	// whenever residual imbalance remains, on the refiner's live table and
	// with the finest level's penalties.
	residual := r.MaxImbalance() > opt.Part.ImbalanceTol
	var err error
	if residual {
		err = diffuse(ctx, g, part, k, opt, r, levels[0].pen)
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

// matchWithinParts is heavy-edge matching restricted to endpoints sharing
// the same origin part, so the old assignment projects exactly onto the
// coarse graph. Vertices are visited in the given order; unmatched ones map
// to singleton coarse vertices.
func matchWithinParts(g *graph.Graph, origin []int32, order []int32) (cmap []int32, ncoarse int) {
	n := g.NumVertices()
	cmap = graph.GetWords(n)
	for i := range cmap {
		cmap[i] = -1
	}
	for _, v := range order {
		if cmap[v] >= 0 {
			continue
		}
		var mate int32 = -1
		var bestW int32 = -1
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adjncy[i]
			if cmap[u] >= 0 || origin[u] != origin[v] {
				continue
			}
			if w := g.AdjWgt[i]; w > bestW {
				bestW, mate = w, u
			}
		}
		c := int32(ncoarse)
		ncoarse++
		cmap[v] = c
		if mate >= 0 {
			cmap[mate] = c
		}
	}
	return cmap, ncoarse
}

// pooledCopy returns a copy of s in an array from the word pool.
func pooledCopy(s []int32) []int32 {
	return append(graph.GetWords(len(s))[:0], s...)
}
