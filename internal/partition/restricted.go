package partition

import (
	"context"
	"math/rand"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// RestrictedOptions controls RefineRestricted. The coarsening stops at a
// level of at most CoarsenTo vertices, at MaxLevels levels (if > 0, the
// finest included), or when a matching shrinks a level by under a tenth.
type RestrictedOptions struct {
	Seed      int64 // seeds the matching's visit order
	CoarsenTo int
	MaxLevels int
	Pen       []int64 // per-vertex penalties on g, summed up the hierarchy; nil: none
	Span      string  // names the per-level spans Span+"/coarsen" and Span+"/refine"
}

// restrictedLevel is one level of the hierarchy: its graph, the map of its
// vertices onto the next coarser level's, and its projected origins and
// penalties.
type restrictedLevel struct {
	g      *graph.Graph
	cmap   []int32 // nil on the coarsest level
	origin []int32
	pen    []int64
}

// RefineRestricted refines part, an assignment of g, in place on a
// hierarchy whose matching never joins vertices of different parts, so part
// projects exactly onto every level. Coarsest first, refine is called once
// per level with r's table laid on the level's graph and assignment, the
// level's origins and penalties, and a context carrying the level's span;
// each refined level is projected onto the next finer one, and the finest
// is refined in part itself, so r's table is left live on (g, part). The
// contractions run on r's pool. The hierarchy's int32 arrays come from the
// graph package's word pool and go back once their level is refined and
// projected. It returns the depth and the coarsest level's vertex count.
func RefineRestricted(ctx context.Context, r *Refiner, g *graph.Graph, part []int32, opt RestrictedOptions,
	refine func(ctx context.Context, level int, origin []int32, pen []int64) error) (depth, coarsest int, err error) {
	rng := rand.New(rand.NewSource(opt.Seed))

	levels := []restrictedLevel{{g: g, origin: pooledCopy(part), pen: opt.Pen}}
	order := graph.GetWords(g.NumVertices()) // matching visit order, reused per level
	defer graph.PutWords(order)
	for opt.MaxLevels <= 0 || len(levels) < opt.MaxLevels {
		cur := levels[len(levels)-1]
		n := cur.g.NumVertices()
		if n <= opt.CoarsenTo || ctx.Err() != nil {
			break
		}
		cspan := obs.StartSpan(ctx, opt.Span+"/coarsen")
		cspan.SetInt("level", int64(len(levels)-1))
		cspan.SetInt("vertices", int64(n))
		cmap, ncoarse := matchWithinParts(cur.g, cur.origin, Perm(order[:n], rng))
		cspan.SetInt("coarse_vertices", int64(ncoarse))
		if ncoarse > n*9/10 { // diminishing returns: stop below 10% shrink
			graph.PutWords(cmap)
			cspan.End()
			break
		}
		cg := cur.g.ContractP(cmap, ncoarse, r.pool)
		next := restrictedLevel{g: cg, origin: graph.GetWords(ncoarse)}
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
	depth, coarsest = len(levels), levels[len(levels)-1].g.NumVertices()

	cur := part
	if len(levels) > 1 {
		cur = pooledCopy(levels[len(levels)-1].origin)
	}
	for li := len(levels) - 1; li >= 0; li-- {
		lv := levels[li]
		rspan := obs.StartSpan(ctx, opt.Span+"/refine")
		rspan.SetInt("level", int64(li))
		err = r.Begin(lv.g, cur)
		if err == nil {
			err = refine(obs.ContextWithSpan(ctx, rspan), li, lv.origin, lv.pen)
		}
		if err != nil {
			rspan.End()
			return depth, coarsest, err
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
	return depth, coarsest, nil
}

// matchWithinParts is heavy-edge matching restricted to endpoints sharing
// the same origin part, so the assignment origin projects exactly onto the
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
