package partition

import (
	"context"
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
	st := &sc.fm
	st.sweep(b)
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

// pass runs one FM pass over the swept state and reports whether it improved
// (violation, cut). Large graphs take the bucket-list gain structure; small
// graphs (and graphs whose gain range dwarfs the vertex count, where a bucket
// array would be mostly empty) fall back to the lazy-deletion heaps. Both
// gates are pure functions of the graph, so the choice never depends on
// scheduling.
func (st *fmState) pass(b *bisection, sc *scratch) bool {
	if n := b.g.NumVertices(); n >= fmBucketMinVertices && 2*int(st.maxw)+1 <= 8*n {
		return st.passBuckets(b, sc)
	}
	return st.passHeap(b, sc)
}

// fmBucketMinVertices gates the bucket-based pass: below it the lazy-deletion
// heap's lower constant factors win and the heap stays (the small-n
// fallback); above it the O(1) bucket updates dominate.
const fmBucketMinVertices = 96

// endPass closes a pass whose applied moves sit in sc.moves with the gain
// each had when it moved in sc.moveGain. A moved vertex's own entry is left
// alone while the pass runs — it keeps collecting neighbour updates from the
// value it moved with, which is also what the heap's compaction reads — so
// its true gain is that entry minus twice the recorded gain. With every
// entry settled, the moves past the best prefix are undone by the same exact
// neighbour updates that applied them, and the cut follows the kept prefix.
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

// passBuckets is the bucket-list FM pass: O(1) candidate updates, no stale
// entries, no per-move closure allocations. All O(n) working state comes from
// the scratch arena, so repeated passes allocate nothing.
func (st *fmState) passBuckets(b *bisection, sc *scratch) bool {
	g, gain := b.g, st.gain
	n := g.NumVertices()

	bk := [2]*gainBuckets{&sc.buckets[0], &sc.buckets[1]}
	bk[0].reset(n, st.maxw)
	bk[1].reset(n, st.maxw)
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
		v, ok := pickMoveBuckets(b, bk, gain, curViol)
		if !ok {
			break
		}
		locked[v] = true
		newViol := b.violationAfterMove(v)
		curCutDelta -= int64(gain[v])
		s := b.where[v]
		b.move(v)
		curViol = newViol
		moves, moveGain = append(moves, v), append(moveGain, gain[v])

		// Update neighbour gains: O(1) bucket moves instead of heap pushes.
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
// bucket structure: pop each side's top candidate, drop candidates whose move
// would increase the violation (they re-enter when a neighbour move changes
// their gain), and keep the (violation, gain)-best of the two, returning the
// loser to its bucket. A second probe round avoids stalling on a single
// inadmissible top entry, mirroring the heap path.
func pickMoveBuckets(b *bisection, bk [2]*gainBuckets, gain []int32, curViol float64) (int32, bool) {
	const eps = 1e-12
	for probe := 0; probe < 2; probe++ {
		var bestV int32 = -1
		var bestGain int32
		var bestViol float64
		for s := int32(0); s < 2; s++ {
			v, ok := bk[s].popMax()
			if !ok {
				continue
			}
			nv := b.violationAfterMove(v)
			if nv > curViol+eps {
				// Inadmissible now; leave it out. A neighbour move that
				// changes its gain re-inserts it via update.
				continue
			}
			if bestV < 0 || nv < bestViol-eps || (nv <= bestViol+eps && gain[v] > bestGain) {
				if bestV >= 0 {
					bk[b.where[bestV]].insert(bestV, gain[bestV])
				}
				bestV, bestGain, bestViol = v, gain[v], nv
			} else {
				bk[s].insert(v, gain[v])
			}
		}
		if bestV >= 0 {
			return bestV, true
		}
		if bk[0].len()+bk[1].len() == 0 {
			break
		}
	}
	return -1, false
}

// passHeap is the original lazy-deletion-heap FM pass, retained as the
// small-n fallback (see pass).
func (st *fmState) passHeap(b *bisection, sc *scratch) bool {
	g, gain := b.g, st.gain
	n := g.NumVertices()

	// One heap per move direction (from side s).
	sc.heaps[0].reset()
	sc.heaps[1].reset()
	heaps := [2]*vertexHeap{&sc.heaps[0], &sc.heaps[1]}
	heaps[0].bind(gain, heapCompactLimit(n))
	heaps[1].bind(gain, heapCompactLimit(n))
	locked := growBool(sc.locked, n)
	sc.locked = locked
	for v := 0; v < n; v++ {
		if gain[v]+st.wdeg[v] > 0 {
			heaps[b.where[v]].push(gain[v], int32(v))
		}
	}

	startViol := b.violation()
	curViol := startViol
	var curCutDelta int64 // cut change relative to pass start (negative = better)

	moves, moveGain := sc.moves[:0], sc.moveGain[:0]
	bestIdx := -1 // moves[:bestIdx+1] is the best prefix
	bestViol, bestCutDelta := startViol, int64(0)

	// Bound non-improving streaks to keep passes near-linear.
	maxStall := 64 + n/16
	stall := 0

	valid := [2]func(int32) bool{
		func(v int32) bool { return !locked[v] && b.where[v] == 0 },
		func(v int32) bool { return !locked[v] && b.where[v] == 1 },
	}

	for heaps[0].len()+heaps[1].len() > 0 && stall < maxStall {
		// Choose the best admissible move from either direction.
		v, ok := pickMove(b, heaps, gain, curViol, valid)
		if !ok {
			break
		}
		locked[v] = true
		newViol := b.violationAfterMove(v)
		curCutDelta -= int64(gain[v])
		s := b.where[v]
		b.move(v)
		curViol = newViol
		moves, moveGain = append(moves, v), append(moveGain, gain[v])

		// Update neighbour gains.
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adjncy[i]
			w := g.AdjWgt[i]
			if b.where[u] == s {
				gain[u] += 2 * w // edge became external for u
			} else {
				gain[u] -= 2 * w // edge became internal for u
			}
			if !locked[u] {
				heaps[b.where[u]].push(gain[u], u)
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

// pickMove selects the highest-gain unlocked boundary vertex whose move does
// not increase the violation. When the current state is balanced, moves must
// keep it balanced; when violated, only violation-reducing or -neutral moves
// are allowed, preferring reducers.
func pickMove(b *bisection, heaps [2]*vertexHeap, gain []int32, curViol float64, valid [2]func(int32) bool) (int32, bool) {
	const eps = 1e-12
	// Peek the best candidate of each direction (with lazy cleanup), then
	// evaluate admissibility; a small bounded probe avoids getting stuck on
	// one inadmissible top entry.
	for probe := 0; probe < 2; probe++ {
		var bestV int32 = -1
		var bestGain int32
		var bestViol float64
		for s := int32(0); s < 2; s++ {
			v, ok := heaps[s].popValid(valid[s], gain)
			if !ok {
				continue
			}
			nv := b.violationAfterMove(v)
			if nv > curViol+eps {
				// Inadmissible now; drop it. It will be re-pushed if a
				// neighbour move changes its gain.
				continue
			}
			if bestV < 0 || nv < bestViol-eps || (nv <= bestViol+eps && gain[v] > bestGain) {
				// Return the loser to its heap.
				if bestV >= 0 {
					heaps[b.where[bestV]].push(gain[bestV], bestV)
				}
				bestV, bestGain, bestViol = v, gain[v], nv
			} else {
				heaps[s].push(gain[v], v)
			}
		}
		if bestV >= 0 {
			return bestV, true
		}
		if heaps[0].len()+heaps[1].len() == 0 {
			break
		}
	}
	return -1, false
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

// initTrial runs one initial-bisection trial on g from the given seed
// vertex: grow side 0 from it into where, then refine. The outcome is a pure
// function of (g, caps, frac, seed, passes) — growing is seeded by the vertex
// alone and FM draws no randomness.
func initTrial(g *graph.Graph, where []int32, seed int32, frac float64, caps0, caps1 []int64, passes int, sc *scratch, span obs.Span) (viol float64, cut int64, idle bool) {
	for i := range where {
		where[i] = 1
	}
	b := newBisection(g, where, caps0, caps1, sc)
	growBisection(b, frac, seed, sc)
	cut, idle = refineBisection(b, passes, sc, span)
	return b.violation(), cut, idle
}

// initialBisection picks the best of opt.InitTrials grow-then-refine trials
// on the coarsest graph g. Every trial draws its start vertex from rng, so
// the stream is the same whatever happens next, but a trial whose
// pseudo-peripheral seed vertex this node has already tried is skipped: it
// would reproduce the earlier trial exactly (see initTrial) and a tie never
// replaces the incumbent. The returned assignment lives in sc; idle reports
// whether the winning trial's refinement stopped on a non-improving pass.
func initialBisection(ctx context.Context, g *graph.Graph, frac float64, caps0, caps1 []int64, opt Options, rng randSource, sc *scratch) (best []int32, idle bool) {
	span := obs.StartSpan(ctx, "partition/initial")
	n := g.NumVertices()
	tried := growBool(sc.triedSeed, n)
	sc.triedSeed = tried
	cand := growI32(sc.trialWhere, n)
	best = growI32(sc.bestWhere, n)
	bestViol, bestCut := 0.0, int64(0)
	run, skipped := 0, 0
	for trial := 0; trial < opt.InitTrials && ctx.Err() == nil; trial++ {
		seed := pseudoPeripheral(g, int32(rng.Intn(n)), sc)
		if tried[seed] {
			skipped++
			continue
		}
		tried[seed] = true
		run++
		viol, cut, trialIdle := initTrial(g, cand, seed, frac, caps0, caps1, opt.RefinePasses, sc, span)
		if run == 1 || betterState(viol, cut, bestViol, bestCut) {
			cand, best = best, cand
			bestViol, bestCut, idle = viol, cut, trialIdle
		}
	}
	if run == 0 { // cancelled before the first trial
		clear(best)
	}
	sc.trialWhere, sc.bestWhere = cand, best
	if span.Active() {
		span.SetInt("vertices", int64(n))
		span.SetInt("trials_run", int64(run))
		span.SetInt("trials_skipped", int64(skipped))
		span.SetInt("cut", bestCut)
		span.SetFloat("violation", bestViol)
	}
	span.End()
	return best, idle
}

// bisectGraph runs the full multilevel 2-way pipeline on g: coarsen, grow an
// initial bisection on the coarsest graph (several trials, best kept), then
// uncoarsen with FM refinement at every level. frac is the share of every
// constraint that side 0 should receive. Returns the side of each vertex;
// the slice may belong to sc and is valid until the arena's next use.
// When ctx is cancelled, remaining trials and refinement passes are skipped
// (projection still runs so the assignment stays full length); the top-level
// construction reports the cancellation.
func bisectGraph(ctx context.Context, g *graph.Graph, frac float64, opt Options, rng randSource, pool *graph.Pool, sc *scratch) []int32 {
	caps0, caps1 := sideCaps(g, frac, opt.ImbalanceTol)
	h := coarsen(ctx, g, opt.CoarsenTo, rng, pool, sc, streamFloor(opt))
	defer h.close()

	// idle tracks whether the last refinement of the finest graph stopped on
	// a non-improving pass; without coarsening the winning trial was it.
	where, idle := initialBisection(ctx, h.coarsest(), frac, caps0, caps1, opt, rng, sc)

	// Uncoarsen and refine. Spilled interior rungs are reloaded one at a
	// time (h.graph) and released once their refinement pass is done, so
	// the resident graph state stays O(finest + coarsest + one rung).
	for li := h.levels() - 1; li >= 1; li-- {
		rspan := obs.StartSpan(ctx, "partition/refine")
		where = projectAssignment(h.cmap(li), where)
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
		b := newBisection(fg, where, caps0, caps1, sc)
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
	if ctx.Err() != nil {
		return where
	}
	// Final balance repair on the finest graph. When the repair moves
	// nothing and the finest graph's refinement already stopped on a
	// non-improving pass, the bisection is exactly the state that pass
	// started from and rolled back to, so refining again would repeat it.
	fspan := obs.StartSpan(ctx, "partition/refine")
	fb := newBisection(g, where, caps0, caps1, sc)
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
	tot := g.TotalWeights()
	maxV := maxVertexWeights(g)
	caps0 = balanceCaps(tot, frac, tol, maxV)
	caps1 = balanceCaps(tot, 1-frac, tol, maxV)
	return caps0, caps1
}

// randSource is the subset of *rand.Rand the partitioner uses; declared as an
// interface so tests can substitute deterministic sequences.
type randSource interface {
	Intn(n int) int
	Perm(n int) []int
}
