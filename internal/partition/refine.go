package partition

import (
	"context"
	"slices"
	"sort"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// fmState is the gain state one refineBisection call keeps alive across its
// passes. gain[v] is the exact FM gain of v (external minus internal weighted
// degree) under the bisection's current assignment; wdeg[v] is v's weighted
// degree, which no move changes, so the external degree is (gain+wdeg)/2 and
// v is a boundary vertex iff gain[v]+wdeg[v] > 0. One O(n+m) sweep fills the
// state; passes keep it current through every move and restore it on
// rollback by exact integer neighbour updates, so it always equals what a
// fresh sweep would compute.
type fmState struct {
	gain []int32
	wdeg []int32
	maxw int32 // maximum weighted degree: bounds every gain, sizes the buckets
	cut  int64 // edge cut of the current assignment
}

// sweep computes the state of b from scratch.
func (st *fmState) sweep(b *bisection) {
	g := b.g
	n := g.NumVertices()
	st.gain = growI32(st.gain, n)
	st.wdeg = growI32(st.wdeg, n)
	st.maxw = 0
	var cut2 int64 // every cut edge is seen from both ends
	for v := 0; v < n; v++ {
		pv := b.where[v]
		var ed, id int32
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			if b.where[g.Adjncy[i]] != pv {
				ed += g.AdjWgt[i]
			} else {
				id += g.AdjWgt[i]
			}
		}
		st.gain[v] = ed - id
		st.wdeg[v] = ed + id
		if ed+id > st.maxw {
			st.maxw = ed + id
		}
		cut2 += int64(ed)
	}
	st.cut = cut2 / 2
}

// fromGrowth computes the state of b, a trial just grown by growBisection,
// from what growing kept: every vertex's weight into side 0 minus its
// weight into side 1 in grown, its weighted degree in tg. That difference
// is the gain of a side-1 vertex and minus the gain of a side-0 one, and
// the external degree is (gain+wdeg)/2, so no adjacency is read.
func (st *fmState) fromGrowth(b *bisection, tg *trialGraph, grown []int32) {
	n := len(grown)
	st.gain = growI32(st.gain, n)
	st.wdeg = growI32(st.wdeg, n)
	st.maxw = tg.maxw
	var cut2 int64 // every cut edge is seen from both ends
	for v, d := range grown {
		if b.where[v] == 0 {
			d = -d
		}
		wd := -tg.negDeg[v]
		st.gain[v] = d
		st.wdeg[v] = wd
		cut2 += int64((d + wd) / 2)
	}
	st.cut = cut2 / 2
}

// refineBisection improves an existing bisection in place with multi-
// constraint Fiduccia–Mattheyses passes: boundary vertices are moved in
// best-gain order under the rule that a move may never increase the balance
// violation; each pass keeps the best (violation, cut) prefix. Refinement
// stops when a pass yields no improvement or after maxPasses. It returns the
// refined edge cut and whether it stopped on a non-improving pass: such a
// pass is rolled back in full and is a pure function of the state it started
// from, so another pass over the unchanged bisection would do nothing.
//
// Each pass records a child span of parent with the post-pass violation.
// Pass the zero Span to refine silently; tracing stays cheap enough to leave
// on (no O(E) cut evaluation per pass).
func refineBisection(b *bisection, maxPasses int, sc *scratch, parent obs.Span) (cut int64, idle bool) {
	sc.fm.sweep(b)
	return refinePasses(b, maxPasses, sc, parent)
}

// refinePasses is refineBisection on the gain state already in sc.fm, which
// must be b's.
func refinePasses(b *bisection, maxPasses int, sc *scratch, parent obs.Span) (cut int64, idle bool) {
	st := &sc.fm
	for i := 0; i < maxPasses && !idle; i++ {
		ps := parent.Start("partition/refine/fm_pass")
		idle = !st.pass(b, sc)
		if ps.Active() {
			ps.SetInt("pass", int64(i))
			ps.SetFloat("violation", b.violation())
			if idle {
				ps.SetInt("improved", 0)
			} else {
				ps.SetInt("improved", 1)
			}
		}
		ps.End()
	}
	return st.cut, idle
}

// endPass closes a pass whose applied moves sit in sc.moves with the gain
// each had when it moved in sc.moveGain. A moved vertex's own entry is left
// alone while the pass runs — it keeps collecting neighbour updates from the
// value it moved with — so its true gain is that entry minus twice the
// recorded gain. With every entry settled, the moves past the best prefix are
// undone by the same exact neighbour updates that applied them, and the cut
// follows the kept prefix.
func (st *fmState) endPass(b *bisection, sc *scratch, bestIdx int, bestCutDelta int64) {
	g, gain := b.g, st.gain
	for i, v := range sc.moves {
		gain[v] -= 2 * sc.moveGain[i]
	}
	for i := len(sc.moves) - 1; i > bestIdx; i-- {
		v := sc.moves[i]
		s := b.where[v]
		b.move(v)
		gain[v] = -gain[v]
		for j := g.Xadj[v]; j < g.Xadj[v+1]; j++ {
			if u := g.Adjncy[j]; b.where[u] == s {
				gain[u] += 2 * g.AdjWgt[j]
			} else {
				gain[u] -= 2 * g.AdjWgt[j]
			}
		}
	}
	st.cut += bestCutDelta
}

// pass runs one FM pass over the swept state and reports whether it improved
// (violation, cut). Candidates wait in one gainBuckets per move direction:
// O(1) updates, no stale entries, no per-move closure allocations. All O(n)
// working state comes from the scratch arena, so repeated passes allocate
// nothing.
func (st *fmState) pass(b *bisection, sc *scratch) bool {
	g, gain := b.g, st.gain
	n := g.NumVertices()

	bk := [2]*gainBuckets{&sc.buckets[0], &sc.buckets[1]}
	bk[0].reset(n, st.maxw, lifo)
	bk[1].reset(n, st.maxw, lifo)
	locked := growBool(sc.locked, n)
	sc.locked = locked
	// Reverse insertion order: buckets are LIFO, so equal-gain candidates
	// pop in ascending vertex id — spatially coherent on banded meshes,
	// which measurably beats descending order on multi-constraint cuts.
	for v := n - 1; v >= 0; v-- {
		if gain[v]+st.wdeg[v] > 0 {
			bk[b.where[v]].insert(int32(v), gain[v])
		}
	}

	startViol := b.violation()
	curViol := startViol
	var curCutDelta int64

	moves, moveGain := sc.moves[:0], sc.moveGain[:0]
	bestIdx := -1
	bestViol, bestCutDelta := startViol, int64(0)

	maxStall := 64 + n/16
	stall := 0

	for bk[0].len()+bk[1].len() > 0 && stall < maxStall {
		v, newViol, ok := pickMoveBuckets(b, bk, gain, curViol)
		if !ok {
			break
		}
		locked[v] = true
		curCutDelta -= int64(gain[v])
		s := b.where[v]
		b.move(v)
		curViol = newViol
		moves, moveGain = append(moves, v), append(moveGain, gain[v])

		// Update neighbour gains: one O(1) bucket move each.
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adjncy[i]
			w := g.AdjWgt[i]
			if b.where[u] == s {
				gain[u] += 2 * w // edge became external for u
			} else {
				gain[u] -= 2 * w // edge became internal for u
			}
			if !locked[u] {
				bk[b.where[u]].update(u, gain[u])
			}
		}

		if betterState(curViol, curCutDelta, bestViol, bestCutDelta) {
			bestViol, bestCutDelta = curViol, curCutDelta
			bestIdx = len(moves) - 1
			stall = 0
		} else {
			stall++
		}
	}

	sc.moves, sc.moveGain = moves, moveGain
	st.endPass(b, sc, bestIdx, bestCutDelta)
	return betterState(bestViol, bestCutDelta, startViol, 0)
}

// pickMoveBuckets selects the best admissible move from either direction's
// bucket structure: look at each side's top
// candidate, drop candidates whose move would increase the violation (they
// re-enter when a neighbour move changes their gain), and take the
// (violation, gain)-best of the two off its bucket, returning it with the
// violation its move leaves. The loser stays where it is, which is where a
// pop and a LIFO re-insert would put it back. A second probe round avoids
// stalling on a single inadmissible top entry.
func pickMoveBuckets(b *bisection, bk [2]*gainBuckets, gain []int32, curViol float64) (int32, float64, bool) {
	const eps = 1e-12
	for probe := 0; probe < 2; probe++ {
		var bestV int32 = -1
		var bestViol float64
		for s := 0; s < 2; s++ {
			v, ok := bk[s].peekMax()
			if !ok {
				continue
			}
			nv := b.moveViolation(v, curViol)
			if nv > curViol+eps {
				bk[s].remove(v)
				continue
			}
			if bestV < 0 || nv < bestViol-eps || (nv <= bestViol+eps && gain[v] > gain[bestV]) {
				bestV, bestViol = v, nv
			}
		}
		if bestV >= 0 {
			bk[b.where[bestV]].remove(bestV)
			return bestV, bestViol, true
		}
		if bk[0].len()+bk[1].len() == 0 {
			break
		}
	}
	return -1, 0, false
}

// betterState orders (violation, cutDelta) lexicographically with a small
// violation epsilon.
func betterState(v1 float64, c1 int64, v2 float64, c2 int64) bool {
	const eps = 1e-12
	if v1 < v2-eps {
		return true
	}
	if v1 > v2+eps {
		return false
	}
	return c1 < c2
}

// balCand is a forceBalance candidate: a movable vertex and its cut gain.
type balCand struct{ v, gain int32 }

// forceBalance repairs residual violation after refinement: for every
// overweight (side, constraint) pair it collects the movable vertices sorted
// by cut gain and transfers the best ones across until the cap is met, as
// long as each transfer does not increase the overall violation. One sweep
// over the constraints; O(n·ncon + moved·log n). It returns the number of
// vertices moved.
func forceBalance(b *bisection, sc *scratch) (moved int) {
	const eps = 1e-12
	g := b.g
	n := g.NumVertices()
	for c := 0; c < g.NCon; c++ {
		for s := int32(0); s < 2; s++ {
			if b.side[s][c] <= b.caps[s][c] {
				continue
			}
			// Candidates: vertices on side s carrying constraint c.
			cands := sc.balCands[:0]
			for v := int32(0); v < int32(n); v++ {
				if b.where[v] != s || g.Weight(v, c) <= 0 {
					continue
				}
				var ed, id int32
				for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
					if b.where[g.Adjncy[i]] != s {
						ed += g.AdjWgt[i]
					} else {
						id += g.AdjWgt[i]
					}
				}
				cands = append(cands, balCand{v, ed - id})
			}
			sc.balCands = cands
			sort.Slice(cands, func(i, j int) bool { return cands[i].gain > cands[j].gain })
			cur := b.violation()
			for _, cd := range cands {
				if b.side[s][c] <= b.caps[s][c] {
					break
				}
				nv := b.violationAfterMove(cd.v)
				if nv < cur-eps {
					b.move(cd.v)
					cur = nv
					moved++
				}
			}
		}
	}
	return moved
}

// trialRecord is what initialBisection keeps of a refined trial besides its
// grown assignment: the assignment's hash and the trial's score.
type trialRecord struct {
	hash uint64
	viol float64
	cut  int64
}

// grownKept bounds the refined trials whose grown assignments one node keeps,
// so the kept bits never exceed the bytes of one n-vertex int32 array.
const grownKept = 32

// packSides packs a 0/1 side assignment into dst, 64 vertices to a word, and
// returns the words with their hash.
func packSides(dst []uint64, where []int32) ([]uint64, uint64) {
	dst = growU64(dst, (len(where)+63)/64)
	h := uint64(len(where))
	for i := range dst {
		var word uint64
		for j, s := range where[i*64 : min(i*64+64, len(where))] {
			word |= uint64(s) << j
		}
		dst[i] = word
		h = (h ^ word) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return dst, h
}

// grownBefore reports whether a grown assignment, packed into grown with
// hash h, equals the assignment of a kept trial — trial i's words are
// kept[i·len(grown):] — and returns that trial's record. The hash only
// narrows the candidates; equal words decide.
func grownBefore(recs []trialRecord, kept, grown []uint64, h uint64) (trialRecord, bool) {
	w := len(grown)
	for i, r := range recs {
		if r.hash == h && slices.Equal(kept[i*w:(i+1)*w], grown) {
			return r, true
		}
	}
	return trialRecord{}, false
}

// initialBisection picks the best of opt.InitTrials grow-then-refine trials
// on the coarsest graph g. Every trial draws its start vertex from rng, so
// the stream is the same whatever happens next. Growing is seeded by the
// vertex alone and FM draws no randomness, so two kinds of trial would
// reproduce an earlier trial of this node exactly and are not refined: one
// whose pseudo-peripheral seed vertex was already tried is skipped, and one
// that grows the assignment of a kept earlier trial (grownKept) is a
// duplicate. A tie never replaces the incumbent, so neither could win —
// except a duplicate whose kept score beats the incumbent, which the
// epsilon of betterState allows in principle; that one is refined as it
// would have been. The returned assignment lives in sc; idle reports
// whether the winning trial's refinement stopped on a non-improving pass.
func initialBisection(ctx context.Context, g *graph.Graph, frac float64, caps0, caps1 []int64, opt Options, rng randSource, sc *scratch) (best []int32, idle bool) {
	span := obs.StartSpan(ctx, "partition/initial")
	n := g.NumVertices()
	tg := &sc.trial
	tg.init(g, frac, caps0, caps1)
	tried := growBool(sc.triedSeed, n)
	sc.triedSeed = tried
	farthest := growI32(sc.farthest, n)
	sc.farthest = farthest
	for i := range farthest {
		farthest[i] = -1
	}
	recs, kept, grown := sc.trialRecs[:0], sc.grownKept[:0], sc.grownWords
	cand := growI32(sc.trialWhere, n)
	best = growI32(sc.bestWhere, n)
	bestViol, bestCut := 0.0, int64(0)
	run, skipped, dup := 0, 0, 0
	for trial := 0; trial < opt.InitTrials && ctx.Err() == nil; trial++ {
		seed := pseudoPeripheral(g, int32(rng.Intn(n)), farthest, sc)
		if tried[seed] {
			skipped++
			continue
		}
		tried[seed] = true
		run++
		b := &sc.bis
		tg.grow(b, cand, seed, sc)
		var h uint64
		grown, h = packSides(grown, cand)
		r, again := grownBefore(recs, kept, grown, h)
		if again && !betterState(r.viol, r.cut, bestViol, bestCut) {
			dup++
			continue
		}
		sc.fm.fromGrowth(b, tg, sc.growGain)
		cut, trialIdle := refinePasses(b, opt.RefinePasses, sc, span)
		viol := b.violation()
		if !again && len(recs) < grownKept {
			recs = append(recs, trialRecord{hash: h, viol: viol, cut: cut})
			kept = append(kept, grown...)
		}
		if run == 1 || betterState(viol, cut, bestViol, bestCut) {
			cand, best = best, cand
			bestViol, bestCut, idle = viol, cut, trialIdle
		}
	}
	if run == 0 { // cancelled before the first trial
		clear(best)
	}
	sc.trialWhere, sc.bestWhere = cand, best
	sc.trialRecs, sc.grownKept, sc.grownWords = recs, kept, grown
	if span.Active() {
		span.SetInt("vertices", int64(n))
		span.SetInt("trials_run", int64(run))
		span.SetInt("trials_skipped", int64(skipped))
		span.SetInt("trials_dup", int64(dup))
		span.SetInt("cut", bestCut)
		span.SetFloat("violation", bestViol)
	}
	span.End()
	return best, idle
}

// bisectGraph runs the full multilevel 2-way pipeline on g: coarsen, grow an
// initial bisection on the coarsest graph (several trials, best kept), then
// uncoarsen with FM refinement at every level. frac is the share of every
// constraint that side 0 should receive. Returns the side of each vertex in
// an array drawn from the word pool, which the caller returns once it is
// done with it. When ctx is cancelled, remaining trials and refinement
// passes are skipped (projection still runs so the assignment stays full
// length); the top-level construction reports the cancellation.
func bisectGraph(ctx context.Context, g *graph.Graph, frac float64, opt Options, rng randSource, pool *graph.Pool, sc *scratch) []int32 {
	caps0, caps1 := sideCaps(g, frac, opt.ImbalanceTol)
	h := coarsen(ctx, g, opt.CoarsenTo, rng, pool, sc, streamFloor(opt))
	defer h.close()

	// idle tracks whether the last refinement of the finest graph stopped on
	// a non-improving pass; without coarsening the winning trial was it.
	where, idle := initialBisection(ctx, h.coarsest(), frac, caps0, caps1, opt, rng, sc)

	// Uncoarsen and refine. Spilled interior rungs are reloaded one at a
	// time (h.graph) and released once their refinement pass is done, so
	// the resident graph state stays O(finest + coarsest + one rung). The
	// coarsest assignment belongs to sc; every projection comes from the
	// word pool and goes back once projected in turn. The bisection carries
	// its side weights from level to level: a projection moves no weight
	// between the sides, so only the first level refined sums them.
	pooled := false
	var b *bisection
	for li := h.levels() - 1; li >= 1; li-- {
		rspan := obs.StartSpan(ctx, "partition/refine")
		fine := projectAssignment(h.cmap(li), where)
		if pooled {
			graph.PutWords(where)
		}
		where, pooled = fine, true
		if li == 1 {
			// Level 0 is always resident: nothing loads after this
			// projection, so the read-back buffers must not sit under the
			// finest level's refinement.
			h.dropReloadBuffers()
		}
		if ctx.Err() != nil {
			rspan.End()
			continue
		}
		fg := h.graph(li - 1)
		if b == nil {
			b = newBisection(fg, where, caps0, caps1, sc)
		} else {
			b.g, b.where = fg, where
		}
		if rspan.Active() {
			rspan.SetInt("level", int64(li-1))
			rspan.SetInt("vertices", int64(fg.NumVertices()))
			rspan.SetInt("sweeps", 1)
			rspan.SetInt("passes_skipped", 0)
		}
		_, idle = refineBisection(b, opt.RefinePasses, sc, rspan)
		rspan.End()
		h.release(li - 1)
	}
	if !pooled {
		// Nothing was coarsened: hand back a pooled copy of the arena's
		// assignment, so the caller owns what it gets either way.
		where = append(graph.GetWords(len(where))[:0], where...)
	}
	if ctx.Err() != nil {
		return where
	}
	// Final balance repair on the finest graph. When the repair moves
	// nothing and the finest graph's refinement already stopped on a
	// non-improving pass, the bisection is exactly the state that pass
	// started from and rolled back to, so refining again would repeat it.
	fspan := obs.StartSpan(ctx, "partition/refine")
	fb := b
	if fb == nil { // nothing was coarsened
		fb = newBisection(g, where, caps0, caps1, sc)
	}
	var skipped int64
	if forceBalance(fb, sc) == 0 && idle {
		skipped = 1
	} else {
		refineBisection(fb, 2, sc, fspan)
	}
	if fspan.Active() {
		fspan.SetStr("stage", "balance")
		fspan.SetInt("vertices", int64(g.NumVertices()))
		fspan.SetInt("sweeps", 1-skipped)
		fspan.SetInt("passes_skipped", skipped)
	}
	fspan.End()
	return where
}

// sideCaps computes the per-constraint caps of both sides for a split with
// fraction frac on side 0.
func sideCaps(g *graph.Graph, frac, tol float64) (caps0, caps1 []int64) {
	tot, maxV := g.TotalWeights(), make([]int64, g.NCon)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		for c, w := range g.WeightVec(v) {
			maxV[c] = max(maxV[c], int64(w))
		}
	}
	caps0 = balanceCaps(tot, frac, tol, maxV)
	caps1 = balanceCaps(tot, 1-frac, tol, maxV)
	return caps0, caps1
}

// randSource is the subset of *rand.Rand the partitioner uses; declared as an
// interface so tests can substitute deterministic sequences.
type randSource interface {
	Intn(n int) int
}
