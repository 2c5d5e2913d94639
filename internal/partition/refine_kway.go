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
		ks.greedySubPass(g, part, caps, pool, bias, true, &st)
		ks.greedySubPass(g, part, caps, pool, bias, false, &st)
		if st.moves == before {
			break
		}
	}
	return st
}

// greedySubPass runs one sub-pass: moves to higher part ids when up, to
// lower ones otherwise.
func (ks *kwayScratch) greedySubPass(g *graph.Graph, part []int32, caps []int64, pool *graph.Pool, bias moveBias, up bool, st *kwayStats) {
	n := len(part)
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
// [lo, hi). It only reads the arena, so chunks may run concurrently.
func (ks *kwayScratch) scanMoves(g *graph.Graph, part []int32, caps []int64, bias moveBias, up bool, lo, hi int, out []greedyMove) []greedyMove {
	for v := lo; v < hi; v++ {
		if m, ok := ks.bestMove(g, part, caps, bias, int32(v), up); ok {
			out = append(out, m)
		}
	}
	return out
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
	dFrom := int64(1) // the overage change of from, once a move needs it (<= 0)
	own, at := ks.own[v], ks.rowAt[v]
	for _, e := range ks.ents[at : at+ks.rowN[v]] {
		if (e.p > from) != up {
			continue
		}
		if dFrom > 0 {
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
