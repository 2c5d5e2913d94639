package partition

import (
	"context"
	"slices"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// The climb: sequential k-way FM passes on the Refiner's live connectivity
// table. A greedy sub-pass commits only moves that pay now; a climb pass may
// move vertices at a loss, so a run of moves can cross a ridge no single
// move crosses, and then rolls back to its best prefix. One pass queues
// every boundary vertex in one gainBuckets under climbKey — its best cut
// gain, raised above every cut gain when leaving its part lowers the part's
// cap overage — and repeatedly takes the top vertex to its best target in
// either direction at any gain (bestMove, dirBoth). A move that would raise
// the total cap overage is not made (the vertex is parked); a raised vertex
// whose best move does not lower the overage drops to its cut gain
// (demoted); every other move goes through moveVertex and locks the vertex.
// A move re-keys the moved vertex's neighbours and, when it took its source
// or target part across a cap, that part's boundary vertices in ascending
// id; either event unparks and undemotes. The pass ends when the queue
// empties or after 2·(64 + boundary/16) moves without a new best, and moves
// back, newest first, every move after the prefix with the lowest (total cap
// overage, cut).
//
// Keys thus equal their definition at every pick, and a pick depends only
// on the keys and the order of the events that set them (LIFO buckets,
// filled in descending id): TestClimbMatchesReference replays exactly that
// with adjacency scans. Every move and undo goes through moveVertex, so the
// table stays exact, and the climb is sequential, so its result is
// byte-identical at every Parallelism.

// climbState is a vertex's state within one climb pass.
type climbState uint8

const (
	climbFree    climbState = iota
	climbLocked             // moved in this pass
	climbParked             // its best move would raise the overage
	climbDemoted            // its raised key's best move keeps the overage
)

// climbStep is one move of a climb pass: v left part from.
type climbStep struct{ v, from int32 }

// climbStats counts the work of a Refiner's climbs: passes, the moves they
// tried, those kept after the rollbacks, and the moves that took a part
// across a cap.
type climbStats struct{ passes, tried, kept, crossings int }

// annotate attaches the counters to a refinement span.
func (s climbStats) annotate(span obs.Span) {
	span.SetInt("climb_passes", int64(s.passes))
	span.SetInt("climb_tried", int64(s.tried))
	span.SetInt("climb_kept", int64(s.kept))
	span.SetInt("climb_rolled_back", int64(s.tried-s.kept))
	span.SetInt("climb_crossings", int64(s.crossings))
}

// Climb runs k-way FM passes on the live table, unbiased: at most passes,
// and after the first only while the last pass kept a move. The table, the
// part weights and the assignment stay exact and consistent. Cancelling
// ctx stops at the next pass boundary. The work adds to the refiner's climb
// counters.
func (r *Refiner) Climb(ctx context.Context, passes int) {
	ks := r.ks
	// The climb keeps no visit set, and no boundary lists until a move
	// crosses a cap: a climb that crosses none pays nothing for them. The
	// next Refine builds both anew.
	ks.tracking, ks.listed = false, false
	for pass := 0; pass < passes && ctx.Err() == nil; pass++ {
		r.climbed.passes++
		if ks.climbPass(r.g, r.part, r.k, ks.caps, &r.climbed) == 0 {
			break
		}
	}
}

// climbPass runs one climb pass and returns how many moves it kept.
func (ks *kwayScratch) climbPass(g *graph.Graph, part []int32, k int, caps []int64, st *climbStats) int {
	n := len(part)
	if cap(ks.cstate) < n {
		ks.cstate = make([]climbState, n)
	}
	ks.cstate = ks.cstate[:n]
	clear(ks.cstate)
	// The key bound: the largest weighted degree on the boundary, which
	// bounds every cut gain, clamped like the bisection buckets' so that a
	// heavy coarse level cannot blow up the bucket array.
	nb, maxDeg := 0, int64(1)
	for v, nr := range ks.rowN[:n] {
		if nr == 0 {
			continue
		}
		nb++
		var ext int64
		for _, e := range ks.ents[ks.rowAt[v] : ks.rowAt[v]+nr] {
			ext += e.w
		}
		maxDeg = max(maxDeg, 2*ext-ks.net[v])
	}
	if nb == 0 {
		return 0
	}
	bound := satKey(maxDeg, int32(4*nb+64))
	ks.cb.reset(n, 3*bound+1, lifo)
	for v := int32(n) - 1; v >= 0; v-- {
		if ks.rowN[v] > 0 {
			ks.cb.insert(v, ks.climbKey(g, part, caps, v, bound))
		}
	}

	over := ks.overage(k, caps)
	bestOver, gain, bestGain, bestAt := over, int64(0), int64(0), 0
	ks.cmoves = ks.cmoves[:0]
	for stall, maxStall := 0, 2*(64+nb/16); ks.cb.len() > 0 && stall < maxStall; {
		v, _ := ks.cb.peekMax()
		ks.cb.remove(v)
		m, _ := ks.bestMove(g, part, caps, moveBias{}, v, dirBoth)
		if m.dOver > 0 {
			ks.cstate[v] = climbParked
			continue
		}
		if m.dOver == 0 && ks.cstate[v] == climbFree && ks.relieves(g, part, caps, v) {
			ks.cstate[v] = climbDemoted
			ks.cb.insert(v, ks.climbKey(g, part, caps, v, bound))
			continue
		}
		if ks.onClimb != nil {
			ks.onClimb(m)
		}
		from, ncon := part[v], g.NCon
		wv := g.WeightVec(v)
		crossFrom := crossesCap(ks.pw[int(from)*ncon:], wv, -1, caps)
		crossTo := crossesCap(ks.pw[int(m.to)*ncon:], wv, 1, caps)
		ks.cstate[v] = climbLocked
		ks.moveVertex(g, part, v, m.to)
		ks.cmoves = append(ks.cmoves, climbStep{v: v, from: from})
		for _, u := range g.Adjncy[g.Xadj[v]:g.Xadj[v+1]] {
			ks.climbRekey(g, part, caps, u, bound)
		}
		if crossFrom || crossTo {
			// Re-key the crossed parts' boundary in ascending id. A vertex
			// of those parts without a row is left alone: it is not queued,
			// and any event that gives it a row re-keys it, resetting its
			// state, before a key of it is read.
			st.crossings++
			if !ks.listed {
				ks.listBoundary(part, k)
			}
			rk := ks.crossed[:0]
			if crossFrom {
				rk = ks.appendBoundary(rk, from)
			}
			if crossTo {
				rk = ks.appendBoundary(rk, m.to)
			}
			slices.Sort(rk)
			for _, u := range rk {
				ks.climbRekey(g, part, caps, u, bound)
			}
			ks.crossed = rk
		}
		over += m.dOver
		gain += m.gain
		if over < bestOver || over == bestOver && gain > bestGain {
			bestOver, bestGain, bestAt = over, gain, len(ks.cmoves)
			stall = 0
		} else {
			stall++
		}
	}
	for i := len(ks.cmoves) - 1; i >= bestAt; i-- {
		ks.moveVertex(g, part, ks.cmoves[i].v, ks.cmoves[i].from)
	}
	st.tried += len(ks.cmoves)
	st.kept += bestAt
	return bestAt
}

// climbRekey brings v's queue entry up to date after an event that may have
// changed its key: a vertex without a row leaves the queue, a locked one
// stays out, any other is unparked, undemoted and queued under its key.
func (ks *kwayScratch) climbRekey(g *graph.Graph, part []int32, caps []int64, v, bound int32) {
	if ks.cstate[v] == climbLocked {
		return
	}
	ks.cstate[v] = climbFree
	if ks.rowN[v] == 0 {
		if ks.cb.contains(v) {
			ks.cb.remove(v)
		}
		return
	}
	ks.cb.update(v, ks.climbKey(g, part, caps, v, bound))
}

// climbKey returns v's queue key: its best cut gain into a part of its row,
// saturated to ±bound, raised by 2·bound + 1 — above every cut gain — when
// v relieves its part and is not demoted.
func (ks *kwayScratch) climbKey(g *graph.Graph, part []int32, caps []int64, v, bound int32) int32 {
	at := ks.rowAt[v]
	best := ks.ents[at].w
	for _, e := range ks.ents[at+1 : at+ks.rowN[v]] {
		best = max(best, e.w)
	}
	key := satKey(best-ks.ownWeight(v), bound)
	if ks.cstate[v] != climbDemoted && ks.relieves(g, part, caps, v) {
		key += 2*bound + 1
	}
	return key
}

// relieves reports whether v weighs in a constraint on which its part is
// over its cap, so that leaving the part lowers the part's overage.
func (ks *kwayScratch) relieves(g *graph.Graph, part []int32, caps []int64, v int32) bool {
	pw := ks.pw[int(part[v])*g.NCon:]
	for c, w := range g.WeightVec(v) {
		if w > 0 && pw[c] > caps[c] {
			return true
		}
	}
	return false
}
