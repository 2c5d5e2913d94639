package partition

import (
	"context"
	"math"
	"math/bits"
	"sort"
	"sync"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// This file is the parallel k-way refinement engine. Each pass decomposes
// k-way boundary refinement into pairwise FM subproblems — one per adjacent
// part pair — and schedules non-adjacent pairs concurrently:
//
//  1. One sweep over the graph discovers the part-adjacency pairs, their
//     boundary vertices, and their boundary edge weight.
//  2. The pairs, sorted by descending weight (heaviest boundaries first get
//     the smallest colors and the most refinement), are greedily
//     edge-colored on the part-adjacency graph, so every color class is a
//     set of part-disjoint pairs.
//  3. Color classes run in sequence. Within a class, every pair runs
//     pairwise FM over its boundary concurrently on the graph.Pool,
//     computing a move list against the read-only pre-round state; a serial
//     in-order commit then applies each pair's best move prefix.
//
// Determinism: pairs within a round are part-disjoint, so one pair's moves
// never change another pair's gains (an edge into a third part contributes
// the same cut weight whichever of its endpoints' pair-parts they sit in)
// nor its part weights. The compute phase therefore reads identical state
// no matter how the pool schedules it, results land in per-pair slots, and
// the commit order is the deterministic pair order — so the refined
// partition is byte-identical at every Options.Parallelism, including
// serial. The same property makes the compute phase race-free: concurrent
// pairs write only pair-local scratch and disjoint entries of the shared
// localID array.
//
// Each piece of pair work is done once (DESIGN §5.2):
//
//   - A pair run is a pure function of the membership of its two parts and
//     the boundary list the sweep built from it. A pair that returned no
//     move is not run again until one of its parts changes (kwayScratch.idle).
//   - The sweep already sums every boundary vertex's edge weight per
//     adjacent part; it also sums the weight into the vertex's own part, so a
//     pair whose parts are unchanged since the sweep starts from those gains
//     instead of rescanning adjacency (pairScratch.seed).
//   - Pair arenas are owned by the k-way arena (kwayScratch.getPair), not by
//     a sync.Pool a GC can empty between two pair runs.

// pairInfo is one adjacent part pair discovered during the boundary sweep.
type pairInfo struct {
	a, b   int32 // a < b
	w      int64 // total boundary edge weight (counted from both endpoints)
	maxDeg int64 // largest weighted degree into a ∪ b over the pair's list
	color  int32
}

// kwayStats counts the work of one kwayRefineWith call. Every scheduled pair
// slot is either run or skipped; idle counts the runs that returned no move.
type kwayStats struct {
	passes, pairsRun, pairsSkipped, pairsIdle, moves int
}

// annotate attaches the counters to a refinement span.
func (s kwayStats) annotate(span obs.Span) {
	if !span.Active() {
		return
	}
	span.SetInt("passes", int64(s.passes))
	span.SetInt("pairs_run", int64(s.pairsRun))
	span.SetInt("pairs_skipped", int64(s.pairsSkipped))
	span.SetInt("pairs_idle", int64(s.pairsIdle))
	span.SetInt("moves", int64(s.moves))
}

// maxDensePairs bounds the k*k dense pair-index table; beyond it the sweep
// falls back to a map (k that large only occurs far outside the solver's
// domain counts).
const maxDensePairs = 1 << 22

// densePairs reports whether k parts index their pairs through the dense
// k*k tables (pairIdx, idleAt) rather than the maps.
func densePairs(k int) bool { return k*k <= maxDensePairs }

// kwayScratch is the pooled arena of the k-way refinement engine: every
// per-pass working array lives here, so steady-state refinement allocates
// nothing once the buffers have grown to the problem size.
type kwayScratch struct {
	caps    []int64 // kwayCapsInto buffer (RefineKWay)
	pw      []int64 // part weights, k*ncon flattened
	mark    []int32 // per-part stamp for the boundary sweep
	wsum    []int64 // per-part edge weight of the vertex under review
	touched []int32 // distinct adjacent parts of the vertex under review
	pairIdx []int32 // dense (a*k+b) -> pair index, -1 when absent
	pairMap map[int64]int32
	pairs   []pairInfo
	lists   [][]int32 // per-pair boundary vertex lists (slot-reused)
	lgain   [][]int64 // per list vertex: edge weight into the other part minus into its own
	order   []int32   // pair indices in coloring order
	sorter  pairSorter
	colors  [][]uint64 // per-part used-color bitset
	rounds  [][]int32  // pair indices grouped by color, in order
	results [][]int32  // per-slot committed move lists of the active round
	localID []int32    // global vertex -> pair-local id, -1 outside any pair

	// Change tracking, in pass stamps: stamp numbers the passes this arena
	// has run (begin takes one too), ver[p] is the stamp of the pass that
	// last moved a vertex into or out of part p, and idleAt (idleMap beyond
	// the dense table) holds, per pair key, the stamp of the last pass in
	// which the pair ran and returned no move. Stamps only grow, so entries
	// left by earlier calls are older than every ver[p] begin sets and need
	// no clearing.
	stamp   int32
	ver     []int32
	idleAt  []int32
	idleMap map[int64]int32

	// Pair arenas, one per concurrent runner of the active round.
	pairMu   sync.Mutex
	pairFree []*pairScratch

	// onSkip, when set (tests only), is called with the pair index of every
	// skipped slot before its round runs.
	onSkip func(pi int32)

	// Active-round state read by runOne. The closure is built once per
	// arena and reused, so steady-state passes allocate nothing.
	cg     *graph.Graph
	cpart  []int32
	ccaps  []int64
	cbias  moveBias
	cround []int32 // the round's pairs that run, in commit order
	runOne func(i int)
}

// kwayScratchPools is size-classed by localID capacity (the arena's dominant,
// vertex-count-sized array); see sizeclass.go for the filing discipline.
var kwayScratchPools [sizeClasses]sync.Pool

// getKwayScratch returns an arena whose localID covers n vertices. The
// localID array holds -1 everywhere between uses (every pair run resets the
// entries it claimed), so acquisition only initialises newly grown entries.
func getKwayScratch(n int) *kwayScratch {
	var ks *kwayScratch
	for c, hi := reqClass(n), 0; hi < classProbes && c < sizeClasses; c, hi = c+1, hi+1 {
		if v := kwayScratchPools[c].Get(); v != nil {
			ks = v.(*kwayScratch)
			break
		}
	}
	if ks == nil {
		ks = new(kwayScratch)
	}
	if cap(ks.localID) < n {
		grown := make([]int32, n)
		copy(grown, ks.localID)
		for i := len(ks.localID); i < n; i++ {
			grown[i] = -1
		}
		ks.localID = grown
	} else {
		old := len(ks.localID)
		ks.localID = ks.localID[:cap(ks.localID)]
		for i := old; i < len(ks.localID); i++ {
			ks.localID[i] = -1
		}
	}
	return ks
}

func putKwayScratch(ks *kwayScratch) { kwayScratchPools[capClass(cap(ks.localID))].Put(ks) }

// pairSorter orders pair indices by descending boundary weight, ties by
// (a, b) — a pure function of the pair set, never of discovery scheduling.
type pairSorter struct {
	order []int32
	pairs []pairInfo
}

func (s *pairSorter) Len() int      { return len(s.order) }
func (s *pairSorter) Swap(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] }
func (s *pairSorter) Less(i, j int) bool {
	pi, pj := &s.pairs[s.order[i]], &s.pairs[s.order[j]]
	if pi.w != pj.w {
		return pi.w > pj.w
	}
	if pi.a != pj.a {
		return pi.a < pj.a
	}
	return pi.b < pj.b
}

// kwayRefine runs parallel pairwise-FM k-way refinement passes in place; see
// the engine comment above. Passes stop early when a full pass commits no
// move, and cancelling ctx stops at the next pass boundary.
func kwayRefine(ctx context.Context, g *graph.Graph, part []int32, k int, caps []int64, passes int, pool *graph.Pool) kwayStats {
	n := g.NumVertices()
	if n == 0 || k <= 1 {
		return kwayStats{}
	}
	ks := getKwayScratch(n)
	defer putKwayScratch(ks)
	return kwayRefineWith(ctx, g, part, k, caps, passes, pool, moveBias{}, ks)
}

// kwayRefineWith is kwayRefine against a caller-held scratch arena, with an
// optional migration bias applied to every move's gain (zero moveBias =
// unbiased).
func kwayRefineWith(ctx context.Context, g *graph.Graph, part []int32, k int, caps []int64, passes int, pool *graph.Pool, bias moveBias, ks *kwayScratch) kwayStats {
	var st kwayStats
	if g.NumVertices() == 0 || k <= 1 {
		return st
	}
	ks.begin(g, part, k)
	for pass := 0; pass < passes; pass++ {
		if ctx.Err() != nil {
			break
		}
		before := st.moves
		kwayPass(g, part, k, caps, ks, pool, bias, &st)
		if st.moves == before {
			break
		}
	}
	return st
}

// begin prepares the arena for one refinement call over (g, part, k): the
// part weights the commit phase maintains across passes, and the change
// tracking — every part counts as changed now, which outdates whatever an
// earlier call left in the idle table. kwayPass relies on it.
func (ks *kwayScratch) begin(g *graph.Graph, part []int32, k int) {
	n, ncon := g.NumVertices(), g.NCon
	ks.pw = growI64(ks.pw, k*ncon)
	for i := range ks.pw {
		ks.pw[i] = 0
	}
	for v := 0; v < n; v++ {
		dst := ks.pw[int(part[v])*ncon:]
		wv := g.WeightVec(int32(v))
		for c := 0; c < ncon; c++ {
			dst[c] += int64(wv[c])
		}
	}

	if densePairs(k) {
		ks.idleAt = growI32(ks.idleAt, k*k)
	} else if ks.idleMap == nil {
		ks.idleMap = make(map[int64]int32)
	} else {
		clear(ks.idleMap) // keys mean another k; bounds the map too
	}
	now := ks.tick()
	ks.ver = growI32(ks.ver, k)
	for p := range ks.ver {
		ks.ver[p] = now
	}
}

// tick starts the next stamp. On the (theoretical) wrap the idle records are
// dropped: every later stamp is then newer than any record, and a ver[p]
// from before the wrap only reads as "changed", which is always safe.
func (ks *kwayScratch) tick() int32 {
	if ks.stamp == math.MaxInt32 {
		ks.stamp = 0
		clear(ks.idleAt[:cap(ks.idleAt)])
		clear(ks.idleMap)
	}
	ks.stamp++
	return ks.stamp
}

// idle reports whether running pair pr in the current pass is provably a
// no-op: it ran and returned no move in an earlier pass, and neither part has
// changed since the sweep of that pass. Both the membership the run reads and
// the list the sweep builds are then what they were, so the run would return
// the same empty move list.
//
// The record is compared against the stamp of the idle run's pass, not
// against the state at the run itself: a pair can run idle on a list built
// before an earlier round of the same pass changed one of its parts, and the
// next sweep then builds a different list. Such a change carries the pass's
// own stamp, so ver >= record and the pair runs again.
func (ks *kwayScratch) idle(pr *pairInfo, k int) bool {
	at := ks.idleStamp(pr, k)
	return ks.ver[pr.a] < at && ks.ver[pr.b] < at
}

// idleStamp reads the pair's idle record (0: none).
func (ks *kwayScratch) idleStamp(pr *pairInfo, k int) int32 {
	key := int(pr.a)*k + int(pr.b)
	if densePairs(k) {
		return ks.idleAt[key]
	}
	return ks.idleMap[int64(key)]
}

func (ks *kwayScratch) markIdle(pr *pairInfo, k int) {
	key := int(pr.a)*k + int(pr.b)
	if densePairs(k) {
		ks.idleAt[key] = ks.stamp
	} else {
		ks.idleMap[int64(key)] = ks.stamp
	}
}

// getPair hands out a pair arena for one run; putPair takes it back. The
// free list never holds more arenas than rounds have run concurrently.
func (ks *kwayScratch) getPair() *pairScratch {
	ks.pairMu.Lock()
	defer ks.pairMu.Unlock()
	if n := len(ks.pairFree); n > 0 {
		ps := ks.pairFree[n-1]
		ks.pairFree = ks.pairFree[:n-1]
		return ps
	}
	return new(pairScratch)
}

func (ks *kwayScratch) putPair(ps *pairScratch) {
	ks.pairMu.Lock()
	ks.pairFree = append(ks.pairFree, ps)
	ks.pairMu.Unlock()
}

// sweep discovers the adjacent part pairs, their boundary vertices and
// weights. A vertex joins the list of every pair formed by its part and a
// distinct adjacent part, together with its initial gain for that pair.
func (ks *kwayScratch) sweep(g *graph.Graph, part []int32, k int) {
	n := g.NumVertices()
	ks.pairs = ks.pairs[:0]
	dense := densePairs(k)
	if dense {
		ks.pairIdx = growPairIdx(ks.pairIdx, k*k)
	} else if ks.pairMap == nil {
		ks.pairMap = make(map[int64]int32)
	}
	ks.mark = growI32(ks.mark, k)
	for i := range ks.mark {
		ks.mark[i] = 0
	}
	ks.wsum = growI64(ks.wsum, k)
	touched := ks.touched[:0]
	for v := 0; v < n; v++ {
		from := part[v]
		stamp := int32(v) + 1
		touched = touched[:0]
		var own int64
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			p := part[g.Adjncy[i]]
			if p == from {
				own += int64(g.AdjWgt[i])
				continue
			}
			if ks.mark[p] != stamp {
				ks.mark[p] = stamp
				ks.wsum[p] = 0
				touched = append(touched, p)
			}
			ks.wsum[p] += int64(g.AdjWgt[i])
		}
		for _, p := range touched {
			a, b := from, p
			if a > b {
				a, b = b, a
			}
			key := int(a)*k + int(b)
			var pi int32
			if dense {
				pi = ks.pairIdx[key]
			} else if got, ok := ks.pairMap[int64(key)]; ok {
				pi = got
			} else {
				pi = -1
			}
			if pi < 0 {
				pi = int32(len(ks.pairs))
				ks.pairs = append(ks.pairs, pairInfo{a: a, b: b})
				if dense {
					ks.pairIdx[key] = pi
				} else {
					ks.pairMap[int64(key)] = pi
				}
				if int(pi) < len(ks.lists) {
					ks.lists[pi] = ks.lists[pi][:0]
					ks.lgain[pi] = ks.lgain[pi][:0]
				} else {
					ks.lists = append(ks.lists, nil)
					ks.lgain = append(ks.lgain, nil)
				}
			}
			pr := &ks.pairs[pi]
			ext := ks.wsum[p]
			pr.w += ext
			if ext+own > pr.maxDeg {
				pr.maxDeg = ext + own
			}
			ks.lists[pi] = append(ks.lists[pi], int32(v))
			ks.lgain[pi] = append(ks.lgain[pi], ext-own)
		}
	}
	ks.touched = touched
}

// kwayPass runs one full refinement pass over an arena prepared by begin and
// adds its work to st.
func kwayPass(g *graph.Graph, part []int32, k int, caps []int64, ks *kwayScratch, pool *graph.Pool, bias moveBias, st *kwayStats) {
	now := ks.tick()
	st.passes++
	ks.sweep(g, part, k)
	np := len(ks.pairs)
	if np == 0 {
		return
	}

	// Greedy edge coloring of the part-adjacency graph, heaviest pair first:
	// each pair takes the smallest color unused at both endpoints.
	ks.order = ks.order[:0]
	for i := 0; i < np; i++ {
		ks.order = append(ks.order, int32(i))
	}
	ks.sorter.order, ks.sorter.pairs = ks.order, ks.pairs
	sort.Sort(&ks.sorter)
	for len(ks.colors) < k {
		ks.colors = append(ks.colors, nil)
	}
	for p := 0; p < k; p++ {
		ks.colors[p] = ks.colors[p][:0]
	}
	ncolors := 0
	for _, pi := range ks.order {
		pr := &ks.pairs[pi]
		c := freeColor(ks.colors[pr.a], ks.colors[pr.b])
		ks.colors[pr.a] = setColorBit(ks.colors[pr.a], c)
		ks.colors[pr.b] = setColorBit(ks.colors[pr.b], c)
		pr.color = int32(c)
		if c+1 > ncolors {
			ncolors = c + 1
		}
	}
	for len(ks.rounds) < ncolors {
		ks.rounds = append(ks.rounds, nil)
	}
	for c := 0; c < ncolors; c++ {
		ks.rounds[c] = ks.rounds[c][:0]
	}
	for _, pi := range ks.order {
		c := ks.pairs[pi].color
		ks.rounds[c] = append(ks.rounds[c], pi)
	}

	// Execute the color rounds: drop the provably idle pairs, run pairwise FM
	// for the rest concurrently against the read-only pre-round state, then
	// commit serially in round order (a skipped pair has nothing to commit,
	// so the commit order is that of the full round).
	ncon := g.NCon
	ks.cg, ks.cpart, ks.ccaps, ks.cbias = g, part, caps, bias
	if ks.runOne == nil {
		ks.runOne = func(i int) {
			pi := ks.cround[i]
			pr := &ks.pairs[pi]
			ps := ks.getPair()
			// Parts untouched by this pass's commits are as the sweep saw them.
			fresh := ks.ver[pr.a] < ks.stamp && ks.ver[pr.b] < ks.stamp
			ks.results[i] = ps.run(ks, pr, ks.lists[pi], ks.lgain[pi], fresh, ks.results[i][:0])
			ks.putPair(ps)
		}
	}
	for c := 0; c < ncolors; c++ {
		run := ks.cround[:0]
		for _, pi := range ks.rounds[c] {
			if ks.idle(&ks.pairs[pi], k) {
				st.pairsSkipped++
				if ks.onSkip != nil {
					ks.onSkip(pi)
				}
				continue
			}
			run = append(run, pi)
		}
		ks.cround = run
		for len(ks.results) < len(run) {
			ks.results = append(ks.results, nil)
		}
		st.pairsRun += len(run)
		pool.RunN(len(run), ks.runOne)
		for i, pi := range run {
			pr := &ks.pairs[pi]
			if len(ks.results[i]) == 0 {
				st.pairsIdle++
				ks.markIdle(pr, k)
				continue
			}
			ks.ver[pr.a], ks.ver[pr.b] = now, now
			for _, v := range ks.results[i] {
				from := part[v]
				to := pr.a
				if from == pr.a {
					to = pr.b
				}
				fw := ks.pw[int(from)*ncon:]
				tw := ks.pw[int(to)*ncon:]
				wv := g.WeightVec(v)
				for ci := 0; ci < ncon; ci++ {
					fw[ci] -= int64(wv[ci])
					tw[ci] += int64(wv[ci])
				}
				part[v] = to
			}
			st.moves += len(ks.results[i])
		}
	}

	// Restore the pair-index invariant (-1 / empty) for the next pass.
	if densePairs(k) {
		for i := range ks.pairs {
			ks.pairIdx[int(ks.pairs[i].a)*k+int(ks.pairs[i].b)] = -1
		}
	} else {
		clear(ks.pairMap)
	}
	ks.cg, ks.cpart, ks.ccaps, ks.cbias = nil, nil, nil, moveBias{}
}

// growPairIdx returns buf resized to n with every entry -1. Entries of a
// reused buffer are already -1 (kwayPass restores them), so only newly grown
// capacity needs filling.
func growPairIdx(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
		for i := range buf {
			buf[i] = -1
		}
		return buf
	}
	old := len(buf)
	buf = buf[:cap(buf)]
	for i := old; i < len(buf); i++ {
		buf[i] = -1
	}
	return buf[:n]
}

// freeColor returns the smallest color absent from both bitsets.
func freeColor(a, b []uint64) int {
	nw := len(a)
	if len(b) > nw {
		nw = len(b)
	}
	for w := 0; w < nw; w++ {
		var used uint64
		if w < len(a) {
			used = a[w]
		}
		if w < len(b) {
			used |= b[w]
		}
		if used != ^uint64(0) {
			return w*64 + bits.TrailingZeros64(^used)
		}
	}
	return nw * 64
}

// setColorBit marks color c used, growing the bitset as needed.
func setColorBit(set []uint64, c int) []uint64 {
	for len(set) <= c/64 {
		set = append(set, 0)
	}
	set[c/64] |= 1 << (c % 64)
	return set
}

// pairScratch is the arena of one pairwise FM run, owned by the k-way arena
// (kwayScratch.getPair). The run's parameters are stored as fields so the hot
// helpers are methods (closures here would escape to the heap on every run).
type pairScratch struct {
	g       *graph.Graph
	part    []int32
	localID []int32
	caps    []int64
	a, b    int32
	bias    moveBias

	verts  []int32 // local id -> global vertex
	gain   []int64 // exact gain of moving the vertex to the pair's other part
	side   []int8  // current side: 0 = part a, 1 = part b
	locked []bool
	moves  []int32 // applied moves, local ids
	pwa    []int64 // pair-local copies of the two part weight vectors
	pwb    []int64
	bk     [2]gainBuckets
	maxDeg int64
}

// run executes pairwise FM between the parts of pr over its boundary vertex
// list, reading ks.cpart and ks.pw as the immutable pre-round state, and
// appends the best move prefix (global vertex ids, in order) to out. The
// caller commits those moves serially; run itself never writes part. fresh
// says that neither part has changed since the sweep built list and lgain.
func (ps *pairScratch) run(ks *kwayScratch, pr *pairInfo, list []int32, lgain []int64, fresh bool, out []int32) []int32 {
	a, b := pr.a, pr.b
	ncon := ks.cg.NCon
	ps.g, ps.part, ps.localID, ps.caps = ks.cg, ks.cpart, ks.localID, ks.ccaps
	ps.a, ps.b, ps.bias = a, b, ks.cbias
	ps.pwa = growI64(ps.pwa, ncon)
	copy(ps.pwa, ks.pw[int(a)*ncon:int(a)*ncon+ncon])
	ps.pwb = growI64(ps.pwb, ncon)
	copy(ps.pwb, ks.pw[int(b)*ncon:int(b)*ncon+ncon])
	ps.moves = ps.moves[:0]
	if fresh {
		ps.seed(list, lgain, pr.maxDeg)
	} else {
		ps.registerAll(list)
	}
	out = ps.refine(out)
	for _, v := range ps.verts {
		ps.localID[v] = -1
	}
	// The arena outlives the call inside a pooled kwayScratch; do not pin
	// the caller's graph and assignment with it.
	ps.g, ps.part, ps.localID, ps.caps, ps.bias = nil, nil, nil, nil, moveBias{}
	return out
}

// seed registers the initial working set from the sweep's sums: with both
// parts as the sweep saw them, every list vertex is still in the pair, its
// gain is the swept weight into the other part minus the weight into its own
// (plus the bias), and pr.maxDeg bounds their weighted degrees — exactly what
// registerAll would compute by scanning adjacency again.
func (ps *pairScratch) seed(list []int32, lgain []int64, maxDeg int64) {
	n := len(list)
	ps.verts = append(ps.verts[:0], list...)
	ps.gain = append(ps.gain[:0], lgain...)
	if cap(ps.side) < n {
		ps.side = make([]int8, n)
	}
	ps.side = ps.side[:n]
	ps.locked = growBool(ps.locked, n)
	for l, v := range list {
		ps.localID[v] = int32(l)
		from, to := ps.a, ps.b
		ps.side[l] = 0
		if ps.part[v] == ps.b {
			ps.side[l] = 1
			from, to = ps.b, ps.a
		}
		if ps.bias.origin != nil {
			ps.gain[l] += ps.bias.delta(v, from, to)
		}
	}
	ps.maxDeg = max(1, maxDeg)
}

// registerAll registers the initial working set by adjacency scan: the path
// for a list built before an earlier round of this pass changed one of the
// pair's parts. Vertices that round moved to a third part are skipped.
func (ps *pairScratch) registerAll(list []int32) {
	ps.verts = ps.verts[:0]
	ps.gain = ps.gain[:0]
	ps.side = ps.side[:0]
	ps.locked = ps.locked[:0]
	ps.maxDeg = 1
	for _, v := range list {
		if pv := ps.part[v]; pv != ps.a && pv != ps.b {
			continue
		}
		if ps.localID[v] >= 0 {
			continue
		}
		ps.register(v)
	}
}

// refine is the FM loop of run over the registered working set.
func (ps *pairScratch) refine(out []int32) []int32 {
	g, part, caps := ps.g, ps.part, ps.caps
	a, b := ps.a, ps.b
	ncon := g.NCon
	nloc := len(ps.verts)
	if nloc == 0 {
		return out
	}
	// Bound the bucket key range by the working-set size so coarse levels
	// (few vertices, heavy accumulated weights) cannot blow up the bucket
	// array; extreme gains clamp to the boundary buckets.
	keyBound := int32(4*nloc + 64)
	maxKey := satKey(ps.maxDeg, keyBound)
	ps.bk[0].reset(nloc, maxKey)
	ps.bk[1].reset(nloc, maxKey)
	// Reverse insertion: LIFO buckets then pop equal-gain candidates in
	// ascending local (≈ global) id — spatially coherent, see fmPassBuckets.
	for l := nloc - 1; l >= 0; l-- {
		ps.bk[ps.side[l]].insert(int32(l), satKey(ps.gain[l], maxKey))
	}

	startOver := overage(ps.pwa, caps) + overage(ps.pwb, caps)
	curOver := startOver
	var curScore int64
	bestIdx := -1
	bestOver, bestScore := startOver, int64(0)
	maxStall := 64 + nloc/16
	stall := 0

	for ps.bk[0].len()+ps.bk[1].len() > 0 && stall < maxStall {
		l, newOver, ok := ps.pickMove(curOver, maxKey)
		if !ok {
			break
		}
		v := ps.verts[l]
		ps.locked[l] = true
		s := ps.side[l]
		wv := g.WeightVec(v)
		if s == 0 {
			for c := 0; c < ncon; c++ {
				ps.pwa[c] -= int64(wv[c])
				ps.pwb[c] += int64(wv[c])
			}
		} else {
			for c := 0; c < ncon; c++ {
				ps.pwb[c] -= int64(wv[c])
				ps.pwa[c] += int64(wv[c])
			}
		}
		ps.side[l] = 1 - s
		curOver = newOver
		curScore += ps.gain[l]
		ps.gain[l] = -ps.gain[l]
		ps.moves = append(ps.moves, l)

		// Neighbour gain updates; vertices of the pair that just became
		// boundary join the working set lazily. Membership is decided by
		// part[u] first: the shared localID array also carries entries of
		// other (part-disjoint) pairs running concurrently, and only
		// vertices whose part is a or b can be local to this pair.
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adjncy[i]
			if pu := part[u]; pu != a && pu != b {
				continue
			}
			lu := ps.localID[u]
			if lu < 0 {
				lu = ps.register(u) // gain computed against the post-move state
				ps.bk[0].grow(len(ps.verts))
				ps.bk[1].grow(len(ps.verts))
				ps.bk[ps.side[lu]].insert(lu, satKey(ps.gain[lu], maxKey))
				continue
			}
			w := int64(g.AdjWgt[i])
			if ps.side[lu] == s {
				ps.gain[lu] += 2 * w // the edge became external for u
			} else {
				ps.gain[lu] -= 2 * w // the edge became internal for u
			}
			if !ps.locked[lu] {
				ps.bk[ps.side[lu]].update(lu, satKey(ps.gain[lu], maxKey))
			}
		}

		if curOver < bestOver || (curOver == bestOver && curScore > bestScore) {
			bestOver, bestScore = curOver, curScore
			bestIdx = len(ps.moves) - 1
			stall = 0
		} else {
			stall++
		}
	}

	// Keep the best prefix only when it beats the starting state; emit it in
	// global ids for the commit phase.
	if bestOver < startOver || bestScore > 0 {
		for _, l := range ps.moves[:bestIdx+1] {
			out = append(out, ps.verts[l])
		}
	}
	return out
}

// register adds vertex v (in part a or b, not yet local) to the working set,
// computing its gain against the current effective state — locally moved
// vertices count on their moved side.
func (ps *pairScratch) register(v int32) int32 {
	g := ps.g
	var ca, cb int64
	for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
		u := g.Adjncy[i]
		pu := ps.part[u]
		if pu != ps.a && pu != ps.b {
			continue // includes other pairs' localID entries — not ours
		}
		su := int8(0)
		if pu == ps.b {
			su = 1
		}
		if lu := ps.localID[u]; lu >= 0 {
			su = ps.side[lu] // locally moved within this pair run
		}
		if su == 0 {
			ca += int64(g.AdjWgt[i])
		} else {
			cb += int64(g.AdjWgt[i])
		}
	}
	var s int8
	var gv int64
	from, to := ps.a, ps.b
	if ps.part[v] == ps.a {
		gv = cb - ca
	} else {
		s = 1
		gv = ca - cb
		from, to = ps.b, ps.a
	}
	if ps.bias.origin != nil {
		gv += ps.bias.delta(v, from, to)
	}
	l := int32(len(ps.verts))
	ps.localID[v] = l
	ps.verts = append(ps.verts, v)
	ps.gain = append(ps.gain, gv)
	ps.side = append(ps.side, s)
	ps.locked = append(ps.locked, false)
	if wd := ca + cb; wd > ps.maxDeg {
		ps.maxDeg = wd
	}
	return l
}

// pickMove selects the best admissible move from either direction's buckets:
// pop each side's top candidate, drop candidates that would worsen the pair
// overage (they re-enter when a neighbour move changes their gain), keep the
// (overage, gain)-best of the two and return the loser. A second probe round
// avoids stalling on a single inadmissible top entry.
func (ps *pairScratch) pickMove(curOver int64, maxKey int32) (int32, int64, bool) {
	for probe := 0; probe < 2; probe++ {
		best := int32(-1)
		var bestOver, bestGain int64
		for s := 0; s < 2; s++ {
			l, ok := ps.bk[s].popMax()
			if !ok {
				continue
			}
			no := ps.overAfter(l)
			if no > curOver {
				continue
			}
			if best < 0 || no < bestOver || (no == bestOver && ps.gain[l] > bestGain) {
				if best >= 0 {
					ps.bk[ps.side[best]].insert(best, satKey(ps.gain[best], maxKey))
				}
				best, bestOver, bestGain = l, no, ps.gain[l]
			} else {
				ps.bk[s].insert(l, satKey(ps.gain[l], maxKey))
			}
		}
		if best >= 0 {
			return best, bestOver, true
		}
		if ps.bk[0].len()+ps.bk[1].len() == 0 {
			break
		}
	}
	return -1, 0, false
}

// overAfter returns the pair overage if local vertex l moved to the other
// side.
func (ps *pairScratch) overAfter(l int32) int64 {
	wv := ps.g.WeightVec(ps.verts[l])
	var over int64
	sgnA := int64(1)
	if ps.side[l] == 0 {
		sgnA = -1
	}
	for c := range ps.caps {
		if d := ps.pwa[c] + sgnA*int64(wv[c]) - ps.caps[c]; d > 0 {
			over += d
		}
		if d := ps.pwb[c] - sgnA*int64(wv[c]) - ps.caps[c]; d > 0 {
			over += d
		}
	}
	return over
}

// overage sums the per-constraint cap overshoot of one part weight vector.
func overage(pw, caps []int64) int64 {
	var over int64
	for c := range caps {
		if d := pw[c] - caps[c]; d > 0 {
			over += d
		}
	}
	return over
}

// satKey saturates an int64 gain into the bucket key range. The buckets
// clamp keys to ±maxKey anyway; saturating first just avoids int32 overflow.
// Exact gains stay in the caller's arrays — clamping only coarsens the
// ordering of extreme (usually bias-dominated) gains.
func satKey(gv int64, maxKey int32) int32 {
	if gv > int64(maxKey) {
		return maxKey
	}
	if gv < -int64(maxKey) {
		return -maxKey
	}
	return int32(gv)
}
