package partition

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// RefineOptions controls RefineKWay.
type RefineOptions struct {
	// ImbalanceTol is the per-constraint balance tolerance (default 1.05).
	ImbalanceTol float64
	// Passes bounds the greedy refinement passes (default 8).
	Passes int
	// Parallelism bounds the worker goroutines of the candidate scans
	// (<= 0: one per core). The refined assignment is byte-identical at
	// every setting; see Options.Parallelism.
	Parallelism int
	// Origin and MovePenalty, when both set (length = vertices), bias
	// refinement against migration: moving vertex v off Origin[v] reduces
	// the move's gain by MovePenalty[v] edge-weight units, and moving it
	// back to Origin[v] adds the same. Balance-restoring moves remain
	// admissible regardless of penalty — the bias steers which vertices
	// migrate, it never blocks rebalancing. Origin with a nil MovePenalty
	// is a zero bias: refinement runs unbiased. The caller keeps
	// |gain| + MovePenalty[v] inside int64.
	Origin      []int32
	MovePenalty []int64
}

// RefineKWay improves an existing k-way assignment in place with greedy
// multi-constraint boundary passes on the part-connectivity table,
// optionally biased against migration (see RefineOptions). It is the warm
// path's refinement (internal/repart); the cold constructions keep the
// pairwise-FM engine, which finds more cut from a poor start. Cancelling ctx
// stops at the next pass boundary; the assignment is always left in a
// consistent (if less refined) state. Steady-state calls allocate nothing:
// every working buffer comes from pooled scratch arenas.
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
		opt.ImbalanceTol = DefaultImbalanceTol
	}
	if opt.Passes <= 0 {
		opt.Passes = DefaultRefinePasses
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
	st := kwayGreedy(ctx, g, part, k, ks.caps, opt.Passes, pool, bias, ks)
	span.SetStr("stage", "refine_kway")
	span.SetInt("vertices", int64(n))
	st.annotate(span)
	span.End()
	return nil
}

// Greedy k-way refinement (METIS/ParMETIS style boundary passes) on the
// connectivity table of the pairwise engine (refine_parallel.go). One pass
// is two sub-passes: the first moves vertices only to higher part ids than
// their own, the second only to lower ones, so two vertices can never swap
// across a boundary in the same sub-pass. A sub-pass
//
//  1. scans the boundary in chunks on the graph.Pool against the read-only
//     table and part weights, and keeps every vertex whose best move
//     (bestMove) is admissible;
//  2. sorts the candidates by (overage change ascending, gain descending,
//     vertex ascending) — a total order, so the candidate list is a pure
//     function of the pre-sub-pass state whatever the chunking;
//  3. commits serially in that order, re-evaluating each vertex against the
//     live table and moving it (kwayScratch.moveVertex) if its best move is
//     still admissible.
//
// The refined assignment is therefore byte-identical at every Parallelism.
// Committing in gain order rather than vertex order lets the moves that pay
// most claim the spare capacity first, which is what keeps a biased repair's
// migration low.

// greedyMinChunk is the fewest vertices a parallel scan chunk covers.
const greedyMinChunk = 2048

// greedyMove is one move of a greedy sub-pass: vertex v to part to, the
// change of the two parts' total cap overage it makes, and its biased cut
// gain.
type greedyMove struct {
	v, to int32
	dOver int64
	gain  int64
}

// cmpGreedyMove is the commit order of a sub-pass's candidates.
func cmpGreedyMove(a, b greedyMove) int {
	return cmp.Or(cmp.Compare(a.dOver, b.dOver), cmp.Compare(b.gain, a.gain), cmp.Compare(a.v, b.v))
}

// kwayGreedy runs greedy passes in place over the arena ks; see above.
// Passes stop early when a full pass commits no move, and cancelling ctx
// stops at the next pass boundary.
func kwayGreedy(ctx context.Context, g *graph.Graph, part []int32, k int, caps []int64, passes int, pool *graph.Pool, bias moveBias, ks *kwayScratch) kwayStats {
	st := kwayStats{greedy: true}
	if g.NumVertices() == 0 || k <= 1 {
		return st
	}
	ks.begin(g, part, k)
	for pass := 0; pass < passes; pass++ {
		if ctx.Err() != nil {
			break
		}
		st.passes++
		before := st.moves
		ks.greedySubPass(g, part, k, caps, pool, bias, true, &st)
		ks.greedySubPass(g, part, k, caps, pool, bias, false, &st)
		if st.moves == before {
			break
		}
	}
	return st
}

// greedySubPass runs one sub-pass: moves to higher part ids when up, to
// lower ones otherwise.
func (ks *kwayScratch) greedySubPass(g *graph.Graph, part []int32, k int, caps []int64, pool *graph.Pool, bias moveBias, up bool, st *kwayStats) {
	n := len(part)
	if ks.prune {
		ks.markOver(k, caps)
	}
	chunks := min(pool.Width(), n/greedyMinChunk)
	if chunks <= 1 {
		ks.cands = ks.scanMoves(g, part, caps, bias, up, 0, n, ks.cands[:0])
	} else {
		for len(ks.chunkCands) < chunks {
			ks.chunkCands = append(ks.chunkCands, nil)
		}
		pool.RunN(chunks, func(i int) {
			ks.chunkCands[i] = ks.scanMoves(g, part, caps, bias, up, i*n/chunks, (i+1)*n/chunks, ks.chunkCands[i][:0])
		})
		ks.cands = ks.cands[:0]
		for _, c := range ks.chunkCands[:chunks] {
			ks.cands = append(ks.cands, c...)
		}
	}
	slices.SortFunc(ks.cands, cmpGreedyMove)
	st.candidates += len(ks.cands)
	for _, c := range ks.cands {
		m, ok := ks.bestMove(g, part, caps, bias, c.v, up)
		if !ok {
			st.stale++
			continue
		}
		if ks.onGreedyMove != nil {
			ks.onGreedyMove(m, up)
		}
		ks.moveVertex(g, part, m.v, m.to)
		st.moves++
	}
	if ks.onCommit != nil {
		ks.onCommit()
	}
}

// scanMoves appends to out the admissible best move of every vertex in
// [lo, hi). It only reads the arena, so chunks may run concurrently. A
// vertex without a row, or one cannotMove rules out, is passed over without
// evaluating a move.
func (ks *kwayScratch) scanMoves(g *graph.Graph, part []int32, caps []int64, bias moveBias, up bool, lo, hi int, out []greedyMove) []greedyMove {
	for v := int32(lo); v < int32(hi); v++ {
		if ks.rowN[v] == 0 || ks.prune && ks.cannotMove(g, part, bias, v) {
			continue
		}
		if m, ok := ks.bestMove(g, part, caps, bias, v, up); ok {
			out = append(out, m)
		}
	}
	return out
}

// markOver lists, for every part p < k, the constraints on which p is above
// its cap: overCons[overAt[p]:overAt[p+1]].
func (ks *kwayScratch) markOver(k int, caps []int64) {
	ncon := len(caps)
	ks.overAt = growI32(ks.overAt, k+1)
	if cap(ks.overCons) < k*ncon {
		ks.overCons = make([]int32, 0, k*ncon)
	}
	ks.overCons = ks.overCons[:0]
	for p := 0; p < k; p++ {
		ks.overAt[p] = int32(len(ks.overCons))
		for c, cp := range caps {
			if ks.pw[p*ncon+c] > cp {
				ks.overCons = append(ks.overCons, int32(c))
			}
		}
	}
	ks.overAt[k] = int32(len(ks.overCons))
}

// cannotMove reports that no move of v, a vertex with a row, is admissible
// in either direction. Two bounds say so:
//
//   - No constraint in which v weighs something has v's part above its cap.
//     Leaving the part then lowers no overage, and no move lowers the total.
//   - net[v] + b(v) ≤ 0. net[v] = wdeg(v) − 2·own(v) bounds the cut gain of
//     a move, because v's edge weight into any one other part is at most
//     wdeg(v) − own(v). b(v) bounds the bias: −pen[v] when v sits on its
//     origin, which every move leaves, and max(pen[v], 0) otherwise, which
//     only a move back to the origin earns. No move then has a positive
//     gain.
//
// Both bounds need every vertex and edge weight non-negative
// (kwayScratch.prune), and the over-cap lists as markOver left them at the
// start of the sub-pass.
func (ks *kwayScratch) cannotMove(g *graph.Graph, part []int32, bias moveBias, v int32) bool {
	from := part[v]
	bound := ks.net[v]
	if bias.origin != nil {
		if bias.origin[v] == from {
			bound -= bias.pen[v]
		} else {
			bound += max(bias.pen[v], 0)
		}
	}
	if bound > 0 {
		return false
	}
	wv := g.WeightVec(v)
	for _, c := range ks.overCons[ks.overAt[from]:ks.overAt[from+1]] {
		if wv[c] > 0 {
			return false
		}
	}
	return true
}

// bestMove returns v's best move in the sub-pass direction against the
// current table and part weights — the lowest overage change, then the
// highest biased gain, then the lowest part id — and whether it is
// admissible: it lowers the total cap overage, or keeps it and has a
// positive gain.
func (ks *kwayScratch) bestMove(g *graph.Graph, part []int32, caps []int64, bias moveBias, v int32, up bool) (greedyMove, bool) {
	best := greedyMove{v: v, to: -1}
	if ks.rowN[v] == 0 {
		return best, false
	}
	from, ncon := part[v], g.NCon
	wv := g.WeightVec(v)
	// The overage change of from (<= 0) and v's own weight, taken when the
	// first move in the sub-pass direction needs them.
	dFrom, own := int64(1), int64(0)
	at := ks.rowAt[v]
	for _, e := range ks.ents[at : at+ks.rowN[v]] {
		if (e.p > from) != up {
			continue
		}
		if dFrom > 0 {
			own = ks.ownWeight(v)
			dFrom = 0
			fw := ks.pw[int(from)*ncon:]
			for c, cp := range caps {
				dFrom += overOf(fw[c]-int64(wv[c]), cp) - overOf(fw[c], cp)
			}
		}
		gain := e.w - own
		if bias.origin != nil {
			gain += bias.delta(v, from, e.p)
		}
		if dFrom == 0 && gain <= 0 {
			// Leaving from lowers no overage, so this move cannot lower
			// the total and has no gain: inadmissible, and it cannot
			// outrank a move that is admissible.
			continue
		}
		tw := ks.pw[int(e.p)*ncon:]
		d := dFrom
		for c, cp := range caps {
			d += overOf(tw[c]+int64(wv[c]), cp) - overOf(tw[c], cp)
		}
		if best.to < 0 || d < best.dOver || (d == best.dOver && (gain > best.gain || (gain == best.gain && e.p < best.to))) {
			best.to, best.dOver, best.gain = e.p, d, gain
		}
	}
	return best, best.to >= 0 && (best.dOver < 0 || (best.dOver == 0 && best.gain > 0))
}

// overOf is one constraint's cap overshoot.
func overOf(w, cap int64) int64 {
	return max(w-cap, 0)
}
