package partition

import (
	"context"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// coarsen builds the multilevel hierarchy by repeated heavy-edge matching
// until the graph has at most coarsenTo vertices or matching stalls (the
// coarse graph shrinks by less than 10%). It returns the hierarchy from
// finest (input, cmap nil) to coarsest; interior rungs above minVerts are
// spilled out of the heap as soon as they stop being the active coarsening
// frontier (see hier). Cancellation is honoured *inside* heavyEdgeMatching
// (every matchCancelStride vertices), not just between levels, so a cancelled
// request never pays for a full matching pass — let alone the contraction
// that would follow it — on a large graph.
func coarsen(ctx context.Context, g *graph.Graph, coarsenTo int, rng randSource, pool *graph.Pool, sc *scratch, minVerts int) *hier {
	h := newHier(g, minVerts)
	cur := g
	for cur.NumVertices() > coarsenTo && ctx.Err() == nil {
		shrinkMatchScratch(sc, cur.NumVertices())
		lspan := obs.StartSpan(ctx, "partition/coarsen")
		if lspan.Active() {
			lspan.SetInt("level", int64(h.levels()-1))
			lspan.SetInt("vertices", int64(cur.NumVertices()))
		}
		mspan := lspan.Start("partition/coarsen/match")
		cmap, ncoarse, ok := heavyEdgeMatching(ctx, cur, rng, pool, sc)
		mspan.End()
		if !ok {
			lspan.End()
			break // cancelled mid-match; do not contract
		}
		if float64(ncoarse) > 0.9*float64(cur.NumVertices()) {
			graph.PutWords(cmap)
			lspan.End()
			break // diminishing returns; stop here
		}
		// The matching buffers are dead until the next level's pass; drop
		// oversized ones before contraction so they don't sit under the
		// triple-resident window (finest + current + coarse being built).
		shrinkMatchScratch(sc, ncoarse)
		cspan := lspan.Start("partition/coarsen/contract")
		cg := cur.ContractP(cmap, ncoarse, pool)
		cspan.End()
		if lspan.Active() {
			lspan.SetInt("coarse_vertices", int64(ncoarse))
		}
		lspan.End()
		h.push(cg, cmap)
		cur = cg
	}
	return h
}

// matchCancelStride is how many vertices heavyEdgeMatching processes between
// context checks; it bounds cancellation latency within a matching pass.
const matchCancelStride = 1024

// shrinkMatchScratch drops the matching buffers when their capacity is at
// least twice the current level's need and the excess is real memory. The
// arena normally only grows — right for refinement, where every pass runs at
// the finest size — but during coarsening each level halves, so buffers grown
// for the finest matching would otherwise sit at full size through the
// triple-resident contraction window that is the partitioner's peak-RSS
// moment. The realloc this costs is one small allocation per deep level.
func shrinkMatchScratch(sc *scratch, n int) {
	const floorWords = 2 << 20 // don't bother below 8 MiB per buffer
	if c := cap(sc.match); c >= 2*n && c > floorWords {
		sc.match = nil
		sc.pref = nil
		sc.order = nil
	}
}

// heavyEdgeMatching computes a matching that pairs each unmatched vertex with
// its unmatched neighbour of heaviest connecting edge, visiting vertices in
// random order. It returns the fine→coarse map and the coarse vertex count;
// ok is false when ctx was cancelled before the matching finished (cmap is
// nil in that case). Unmatched vertices become singleton coarse vertices.
//
// The candidate scoring is sharded across the pool: pref[v] precomputes v's
// first maximum-weight neighbour, which is exactly the vertex the serial scan
// would pick whenever that neighbour is still unmatched (any earlier
// neighbour has a strictly smaller weight). The sequential sweep then only
// falls back to a full scan when the preferred neighbour was already taken,
// so the matching is bit-identical to the serial algorithm while the bulk of
// the edge scanning runs in parallel.
func heavyEdgeMatching(ctx context.Context, g *graph.Graph, rng randSource, pool *graph.Pool, sc *scratch) (cmap []int32, ncoarse int, ok bool) {
	if ctx.Err() != nil {
		return nil, 0, false
	}
	n := g.NumVertices()

	pref := growI32(sc.pref, n)
	sc.pref = pref
	bounds := pool.Bounds(n, 4096)
	pool.RunN(len(bounds)-1, func(s int) {
		for v := bounds[s]; v < bounds[s+1]; v++ {
			adj := g.Neighbors(int32(v))
			wgt := g.EdgeWeights(int32(v))
			var best int32 = -1
			var bestW int32 = -1
			for i, u := range adj {
				if wgt[i] > bestW {
					best, bestW = u, wgt[i]
				}
			}
			pref[v] = best
		}
	})

	match := growI32(sc.match, n)
	sc.match = match
	for i := range match {
		match[i] = -1
	}
	order := Perm(growI32(sc.order, n), rng)
	sc.order = order
	for oi, v := range order {
		if oi%matchCancelStride == 0 && ctx.Err() != nil {
			return nil, 0, false
		}
		if match[v] >= 0 {
			continue
		}
		best := pref[v]
		if best >= 0 && match[best] >= 0 {
			// Preferred neighbour already matched; fall back to the scan.
			best = -1
			var bestW int32 = -1
			adj := g.Neighbors(v)
			wgt := g.EdgeWeights(v)
			for i, u := range adj {
				if match[u] < 0 && wgt[i] > bestW {
					best, bestW = u, wgt[i]
				}
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
		} else {
			match[v] = v // singleton
		}
	}

	// cmap outlives the call (it is retained by the level hierarchy, which
	// returns it), so it comes from the word pool, not the scratch arena.
	cmap = graph.GetWords(n)
	for i := range cmap {
		cmap[i] = -1
	}
	next := int32(0)
	for v := 0; v < n; v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = next
		if m := match[v]; m != int32(v) {
			cmap[m] = next
		}
		next++
	}
	return cmap, int(next), true
}

// Perm fills buf with a random permutation of [0, len(buf)) and returns it.
// It makes exactly the draws rand.Perm(len(buf)) makes, in the same order,
// so the permutation and the source's later stream equal rand.Perm's,
// without its []int allocation.
func Perm(buf []int32, rng interface{ Intn(n int) int }) []int32 {
	for i := range buf {
		j := rng.Intn(i + 1)
		buf[i] = buf[j]
		buf[j] = int32(i)
	}
	return buf
}

// projectAssignment pushes a coarse 0/1 (or k-way) assignment down one level:
// each fine vertex inherits the part of its coarse vertex. The fine
// assignment comes from the word pool; its caller returns it.
func projectAssignment(cmap []int32, coarsePart []int32) []int32 {
	fine := graph.GetWords(len(cmap))
	for v, cv := range cmap {
		fine[v] = coarsePart[cv]
	}
	return fine
}
