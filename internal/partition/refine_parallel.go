package partition

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// This file is the parallel k-way refinement engine. Each pass decomposes
// k-way boundary refinement into pairwise FM subproblems — one per adjacent
// part pair — and schedules non-adjacent pairs concurrently:
//
//  1. One sweep over the connectivity table's rows discovers the
//     part-adjacency pairs, their boundary vertices, and their boundary edge
//     weight.
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
//   - Every vertex's net edge weight (into other parts minus into its own)
//     and, for boundary vertices, its edge weight into each adjacent part
//     are kept in one connectivity table, built by begin and patched by the
//     serial commit (kwayScratch.moveVertex).
//     The sweep and every gain a pair run needs are lookups in it; no pass
//     scans adjacency except to apply a committed move.
//   - Pair arenas are owned by the k-way arena (kwayScratch.getPair), not by
//     a sync.Pool a GC can empty between two pair runs.

// pairInfo is one adjacent part pair discovered during the boundary sweep.
type pairInfo struct {
	a, b  int32 // a < b
	w     int64 // total boundary edge weight (counted from both endpoints)
	color int32
}

// connEntry is one entry of a vertex's connectivity row: its edges into one
// adjacent part other than its own.
type connEntry struct {
	p int32 // the adjacent part
	n int32 // edge count into p; the entry is dropped when it reaches 0
	w int64 // edge weight into p
}

// kwayStats counts the work of one k-way refinement call. For the pairwise
// engine every scheduled pair slot is either run or skipped, and idle counts
// the runs that returned no move. For the greedy passes (greedyPasses, greedy
// set) visited counts the vertices the scans looked at, candidates their
// admissible moves and stale those the commit re-check rejected, and stop
// says why the passes ended.
type kwayStats struct {
	passes, moves                     int
	pairsRun, pairsSkipped, pairsIdle int
	greedy                            bool
	visited, candidates, stale        int
	stop                              greedyStop
}

// annotate attaches the counters of the engine that ran to a refinement
// span.
func (s kwayStats) annotate(span obs.Span) {
	if !span.Active() {
		return
	}
	span.SetInt("passes", int64(s.passes))
	if s.greedy {
		span.SetInt("visited", int64(s.visited))
		span.SetInt("candidates", int64(s.candidates))
		span.SetInt("stale", int64(s.stale))
		span.SetStr("stop", s.stop.String())
	} else {
		span.SetInt("pairs_run", int64(s.pairsRun))
		span.SetInt("pairs_skipped", int64(s.pairsSkipped))
		span.SetInt("pairs_idle", int64(s.pairsIdle))
	}
	span.SetInt("moves", int64(s.moves))
}

// maxDensePairs bounds the k*k dense pair-index table; beyond it the sweep
// falls back to a map (k that large only occurs far outside the solver's
// domain counts).
const maxDensePairs = 1 << 22

// densePairs reports whether k parts index their pairs through the dense
// k*k tables (pairIdx, idleAt) rather than the maps.
func densePairs(k int) bool { return k*k <= maxDensePairs }

// kwayScratch is the pooled arena of the k-way refinement engines — the
// pairwise FM of this file and the greedy passes of refine_kway.go, which
// share its part weights and connectivity table: every per-pass working
// array lives here, so steady-state refinement allocates nothing once the
// buffers have grown to the problem size.
type kwayScratch struct {
	caps    []int64 // kwayCapsInto buffer (Refiner)
	pw      []int64 // part weights, k*ncon flattened
	pairIdx []int32 // dense (a*k+b) -> pair index, -1 when absent
	pairMap map[int64]int32
	pairs   []pairInfo
	lists   [][]int32  // per-pair boundary vertex lists (slot-reused)
	order   []int32    // pair indices in coloring order
	colors  [][]uint64 // per-part used-color bitset
	rounds  [][]int32  // pair indices grouped by color, in order
	results [][]int32  // per-slot committed move lists of the active round
	localID []int32    // global vertex -> pair-local id, -1 outside any pair

	// The part-connectivity table of the call, exact at every round start.
	// A vertex that has had a neighbour in another part during the call owns
	// a row of rowCap[v] entries at ents[rowAt[v]:] (rowAt -1: no row), whose
	// first rowN[v] entries are its adjacent parts. net[v] is v's edge weight
	// into other parts minus its edge weight into its own, wdeg(v) − 2·own(v),
	// which bounds the cut gain of any move of v (cannotMove); v's own weight
	// is its row's weight minus net[v] (ownWeight).
	net    []int64
	rowAt  []int32
	rowN   []int32
	rowCap []int32
	ents   []connEntry
	adj    []int32 // countRow's distinct adjacent parts of the vertex under count

	// prune is set by begin when no vertex or edge weight of the graph is
	// negative, the condition under which the greedy scan may skip the
	// vertices cannotMove rules out. overAt and overCons list, per part, the
	// constraints it is over its cap on (markOver).
	prune    bool
	overAt   []int32
	overCons []int32

	// The greedy scan's visit set (refine_kway.go): while tracking, visit
	// holds a bit for every vertex cannotMove does not rule out under the
	// caps vcaps and the bias vbias, and bhead/bnext/bprev list each part's
	// vertices with a row (bprev[v] unlisted: none). begin clears tracking.
	tracking bool
	vcaps    []int64
	vbias    moveBias
	visit    []uint64
	bhead    []int32
	bnext    []int32
	bprev    []int32

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

	// The greedy passes' candidate moves: the sub-pass's, and per scan chunk.
	cands      []greedyMove
	chunkCands [][]greedyMove

	// Pair arenas, one per concurrent runner of the active round.
	pairMu   sync.Mutex
	pairFree []*pairScratch

	// Test-only hooks, nil otherwise: onSkip is called with the pair index
	// of every skipped slot before its round runs, onRegister with every
	// vertex a pair run registers once its gain is settled (after the whole
	// initial working set, or after the move that made it join), onCommit
	// after every commit round and every greedy sub-pass, onGreedyMove with
	// every greedy move just before it is committed.
	onSkip       func(pi int32)
	onRegister   func(ps *pairScratch, l int32)
	onCommit     func()
	onGreedyMove func(m greedyMove, up bool)

	// Active-round state read by runOne. The closure is built once per
	// arena and reused, so steady-state passes allocate nothing.
	cg     *graph.Graph
	cpart  []int32
	ccaps  []int64
	cround []int32 // the round's pairs that run, in commit order
	runOne func(i int)

	// The refiner that holds this arena (NewRefiner), kept here so that
	// taking one from the pool allocates nothing.
	ref Refiner
}

// kwayScratchPools is size-classed by localID capacity (one of the arena's
// vertex-count-sized arrays).
var kwayScratchPools graph.SizedPool[kwayScratch]

// getKwayScratch returns an arena whose localID covers n vertices. The
// localID array holds -1 everywhere between uses (every pair run resets the
// entries it claimed), so acquisition only initialises newly grown entries.
func getKwayScratch(n int) *kwayScratch {
	ks := kwayScratchPools.Get(n)
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

func putKwayScratch(ks *kwayScratch) { kwayScratchPools.Put(ks, cap(ks.localID)) }

// reserve sizes the arena for tables of graphs up to g's size: its
// vertex-sized arrays for g's vertices, its entry arena, with begin's 1/8
// headroom, for one entry per edge end that part cuts on g — at least the
// rows of part's table — and the part-sized ones for k parts. begin on g or
// on a coarsening of it then lays its rows in one sweep unless refinement
// has cut more edges since.
func (ks *kwayScratch) reserve(g *graph.Graph, part []int32, k int) {
	n := g.NumVertices()
	ks.net = growI64(ks.net, n)
	ks.rowAt = growI32(ks.rowAt, n)
	ks.rowN = growI32(ks.rowN, n)
	ks.rowCap = growI32(ks.rowCap, n)
	ks.bnext = growI32(ks.bnext, n)
	ks.bprev = growI32(ks.bprev, n)
	ks.visit = growU64(ks.visit, (n+63)/64)
	ks.bhead = growI32(ks.bhead, k)
	ks.pw = growI64(ks.pw, k*g.NCon)
	ends := 0
	for v := 0; v < n; v++ {
		pv := part[v]
		for _, u := range g.Adjncy[g.Xadj[v]:g.Xadj[v+1]] {
			if part[u] != pv {
				ends++
			}
		}
	}
	if need := ends + ends/8; cap(ks.ents) < need {
		ks.ents = make([]connEntry, 0, need)
	}
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
	return kwayRefineWith(ctx, g, part, k, caps, passes, pool, ks)
}

// kwayRefineWith is kwayRefine against a caller-held scratch arena.
func kwayRefineWith(ctx context.Context, g *graph.Graph, part []int32, k int, caps []int64, passes int, pool *graph.Pool, ks *kwayScratch) kwayStats {
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
		kwayPass(g, part, k, caps, ks, pool, &st)
		if st.moves == before {
			break
		}
	}
	return st
}

// begin prepares the arena for one refinement call over (g, part, k): the
// part weights and the connectivity table the commit phase maintains across
// passes, and the change tracking — every part counts as changed now, which
// outdates whatever an earlier call left in the idle table. kwayPass relies
// on it.
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

	// The table in one adjacency sweep: each vertex's net weight and its row,
	// laid back to back at exactly its size in the arena an earlier call left.
	// Should the arena fill up, the rest of the sweep only counts rows, the
	// arena is reserved once at exactly that size, and a second scan lays
	// the remaining rows. Either way it ends with 1/8 headroom for rows that
	// later commits acquire or outgrow, allocated only when the arena lacks
	// it.
	ks.net = growI64(ks.net, n)
	ks.rowAt = growI32(ks.rowAt, n)
	ks.rowN = growI32(ks.rowN, n)
	ks.rowCap = growI32(ks.rowCap, n)
	ks.ents = ks.ents[:0]
	full := int32(n) // the first vertex whose row did not fit
	for v := int32(0); v < int32(n); v++ {
		if !ks.layRow(g, part, v) {
			full = v
			break
		}
	}
	rows := len(ks.ents)
	for v := full; v < int32(n); v++ {
		rows += ks.countRow(g, part, v)
	}
	if need := rows + rows/8; cap(ks.ents) < need {
		ks.ents = append(make([]connEntry, 0, need), ks.ents...)
	}
	for v := full; v < int32(n); v++ {
		ks.layRow(g, part, v)
	}
	ks.prune = !anyNegative(g.VWgt) && !anyNegative(g.AdjWgt)
	ks.tracking = false

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

// anyNegative reports whether some weight in s is negative.
func anyNegative(s []int32) bool {
	for _, w := range s {
		if w < 0 {
			return true
		}
	}
	return false
}

// layRow sets v's net weight and lays its row at the end of the arena, at
// exactly its size and with entries in first-seen order, as scanRow would.
// It reports false, laying nothing, when the row does not fit in the
// arena's capacity.
func (ks *kwayScratch) layRow(g *graph.Graph, part []int32, v int32) bool {
	pv := part[v]
	at := len(ks.ents)
	row := ks.ents[at:at]
	var net int64
	for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
		w := int64(g.AdjWgt[i])
		p := part[g.Adjncy[i]]
		if p == pv {
			net -= w
			continue
		}
		net += w
		j := 0
		for j < len(row) && row[j].p != p {
			j++
		}
		if j == len(row) {
			if j == cap(row) {
				return false
			}
			row = append(row, connEntry{p: p})
		}
		row[j].n++
		row[j].w += w
	}
	nr := int32(len(row))
	ks.net[v], ks.rowAt[v], ks.rowN[v], ks.rowCap[v] = net, -1, nr, nr
	if nr > 0 {
		ks.rowAt[v] = int32(at)
		ks.ents = ks.ents[:at+len(row)]
	}
	return true
}

// countRow returns the number of distinct parts other than its own that v
// touches: the size of its row.
func (ks *kwayScratch) countRow(g *graph.Graph, part []int32, v int32) int {
	adj := ks.adj[:0]
	for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
		if p := part[g.Adjncy[i]]; p != part[v] && !slices.Contains(adj, p) {
			adj = append(adj, p)
		}
	}
	ks.adj = adj
	return len(adj)
}

// scanRow recomputes v's net weight and row from its adjacency.
func (ks *kwayScratch) scanRow(g *graph.Graph, part []int32, v int32) {
	pv := part[v]
	var net int64
	ks.rowN[v] = 0
	for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
		w := int64(g.AdjWgt[i])
		if p := part[g.Adjncy[i]]; p == pv {
			net -= w
		} else {
			net += w
			ks.connect(g, v, p, w)
		}
	}
	ks.net[v] = net
}

// ownWeight returns v's edge weight into its own part.
func (ks *kwayScratch) ownWeight(v int32) int64 {
	own := -ks.net[v]
	if at := ks.rowAt[v]; at >= 0 {
		for _, e := range ks.ents[at : at+ks.rowN[v]] {
			own += e.w
		}
	}
	return own
}

// connect adds one edge of weight w from v into part p ≠ part[v]. A vertex
// without a row first gets one of capacity 2, a full row moves to one of
// twice its capacity; neither exceeds deg(v), the most distinct parts v can
// touch.
func (ks *kwayScratch) connect(g *graph.Graph, v, p int32, w int64) {
	at := ks.rowAt[v]
	if at >= 0 {
		row := ks.ents[at : at+ks.rowN[v]]
		for j := range row {
			if row[j].p == p {
				row[j].n++
				row[j].w += w
				return
			}
		}
	}
	if ks.rowN[v] == ks.rowCap[v] {
		ks.place(v, min(g.Xadj[v+1]-g.Xadj[v], max(2, 2*ks.rowCap[v])))
	}
	ks.ents[ks.rowAt[v]+ks.rowN[v]] = connEntry{p: p, n: 1, w: w}
	ks.rowN[v]++
}

// place gives v a row of capacity c at the end of the arena, moving its live
// entries there if it had one.
func (ks *kwayScratch) place(v, c int32) {
	at := len(ks.ents)
	ks.ents = slices.Grow(ks.ents, int(c))[:at+int(c)]
	if old := ks.rowAt[v]; old >= 0 {
		copy(ks.ents[at:], ks.ents[old:old+ks.rowN[v]])
	}
	ks.rowAt[v], ks.rowCap[v] = int32(at), c
}

// disconnect removes one edge of weight w from v into part p. The entry goes
// when its edge count reaches 0 — not its weight, which zero-weight edges
// leave at 0 while v still touches p.
func (ks *kwayScratch) disconnect(v, p int32, w int64) {
	at := ks.rowAt[v]
	row := ks.ents[at : at+ks.rowN[v]]
	for j := range row {
		if row[j].p != p {
			continue
		}
		row[j].n--
		row[j].w -= w
		if row[j].n == 0 {
			row[j] = row[len(row)-1]
			ks.rowN[v]--
		}
		return
	}
}

// connWeight returns v's edge weight into part p ≠ part[v].
func (ks *kwayScratch) connWeight(v, p int32) int64 {
	if at := ks.rowAt[v]; at >= 0 {
		for _, e := range ks.ents[at : at+ks.rowN[v]] {
			if e.p == p {
				return e.w
			}
		}
	}
	return 0
}

// moveVertex commits the move of v to part to: the part weights, part[v],
// and the connectivity table — each neighbour's net weight and row, then v's
// row rebuilt against its new part.
func (ks *kwayScratch) moveVertex(g *graph.Graph, part []int32, v, to int32) {
	from := part[v]
	ncon := g.NCon
	fw, tw := ks.pw[int(from)*ncon:], ks.pw[int(to)*ncon:]
	wv := g.WeightVec(v)
	var fromCrosses, toCrosses bool
	if ks.tracking {
		fromCrosses, toCrosses = ks.crossesCap(fw, wv, -1), ks.crossesCap(tw, wv, 1)
		ks.unlist(part, v)
	}
	for c := 0; c < ncon; c++ {
		fw[c] -= int64(wv[c])
		tw[c] += int64(wv[c])
	}
	if fromCrosses || toCrosses {
		ks.markOver(len(ks.bhead), ks.vcaps) // the lists cover every part
	}
	part[v] = to
	for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
		u, w := g.Adjncy[i], int64(g.AdjWgt[i])
		switch part[u] {
		case from:
			ks.net[u] += 2 * w
			ks.connect(g, u, to, w)
		case to:
			ks.disconnect(u, from, w)
			ks.net[u] -= 2 * w
		default:
			ks.disconnect(u, from, w)
			ks.connect(g, u, to, w)
		}
		if ks.tracking {
			ks.revisit(g, part, u)
		}
	}
	ks.scanRow(g, part, v)
	if ks.tracking {
		ks.revisit(g, part, v)
		if fromCrosses {
			ks.revisitPart(g, part, from)
		}
		if toCrosses {
			ks.revisitPart(g, part, to)
		}
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
// weights from the connectivity rows: a vertex joins the list of every pair
// formed by its part and an adjacent part of its row.
func (ks *kwayScratch) sweep(part []int32, k int) {
	ks.pairs = ks.pairs[:0]
	dense := densePairs(k)
	if dense {
		ks.pairIdx = growPairIdx(ks.pairIdx, k*k)
	} else if ks.pairMap == nil {
		ks.pairMap = make(map[int64]int32)
	}
	for v, nr := range ks.rowN {
		if nr == 0 {
			continue
		}
		from, at := part[v], ks.rowAt[v]
		for _, e := range ks.ents[at : at+nr] {
			a, b := from, e.p
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
				} else {
					ks.lists = append(ks.lists, nil)
				}
			}
			ks.pairs[pi].w += e.w
			ks.lists[pi] = append(ks.lists[pi], int32(v))
		}
	}
}

// kwayPass runs one full refinement pass over an arena prepared by begin and
// adds its work to st.
func kwayPass(g *graph.Graph, part []int32, k int, caps []int64, ks *kwayScratch, pool *graph.Pool, st *kwayStats) {
	now := ks.tick()
	st.passes++
	ks.sweep(part, k)
	np := len(ks.pairs)
	if np == 0 {
		return
	}

	// Greedy edge coloring of the part-adjacency graph, heaviest pair first:
	// each pair takes the smallest color unused at both endpoints. The order
	// (w desc, a, b) is total — a pure function of the pair set, never of
	// discovery order.
	ks.order = ks.order[:0]
	for i := 0; i < np; i++ {
		ks.order = append(ks.order, int32(i))
	}
	pairs := ks.pairs
	slices.SortFunc(ks.order, func(i, j int32) int {
		pi, pj := &pairs[i], &pairs[j]
		if pi.w != pj.w {
			return cmp.Compare(pj.w, pi.w)
		}
		return cmp.Or(cmp.Compare(pi.a, pj.a), cmp.Compare(pi.b, pj.b))
	})
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
	ks.cg, ks.cpart, ks.ccaps = g, part, caps
	if ks.runOne == nil {
		ks.runOne = func(i int) {
			pi := ks.cround[i]
			ps := ks.getPair()
			ks.results[i] = ps.run(ks, &ks.pairs[pi], ks.lists[pi], ks.results[i][:0])
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
				to := pr.a
				if part[v] == pr.a {
					to = pr.b
				}
				ks.moveVertex(g, part, v, to)
			}
			st.moves += len(ks.results[i])
		}
		if ks.onCommit != nil {
			ks.onCommit()
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
	ks.cg, ks.cpart, ks.ccaps = nil, nil, nil
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
	ks      *kwayScratch // the connectivity table, read-only during the run
	g       *graph.Graph
	part    []int32
	localID []int32
	caps    []int64
	a, b    int32

	verts  []int32 // local id -> global vertex
	gain   []int64 // exact gain of moving the vertex to the pair's other part
	side   []int8  // current side: 0 = part a, 1 = part b
	locked []bool
	moves  []int32 // applied moves, local ids
	pwa    []int64 // pair-local copies of the two part weight vectors
	pwb    []int64
	bk     [2]gainBuckets
	maxDeg int64 // largest weighted degree into a ∪ b of the initial working set
}

// run executes pairwise FM between the parts of pr over its boundary vertex
// list, reading ks.cpart, ks.pw and the connectivity table as the immutable
// pre-round state, and appends the best move prefix (global vertex ids, in
// order) to out. The caller commits those moves serially; run itself never
// writes part.
func (ps *pairScratch) run(ks *kwayScratch, pr *pairInfo, list []int32, out []int32) []int32 {
	a, b := pr.a, pr.b
	ncon := ks.cg.NCon
	ps.ks, ps.g, ps.part, ps.localID, ps.caps = ks, ks.cg, ks.cpart, ks.localID, ks.ccaps
	ps.a, ps.b = a, b
	ps.pwa = growI64(ps.pwa, ncon)
	copy(ps.pwa, ks.pw[int(a)*ncon:int(a)*ncon+ncon])
	ps.pwb = growI64(ps.pwb, ncon)
	copy(ps.pwb, ks.pw[int(b)*ncon:int(b)*ncon+ncon])
	ps.moves = ps.moves[:0]
	ps.registerAll(list)
	if ks.onRegister != nil {
		for l := range ps.verts {
			ks.onRegister(ps, int32(l))
		}
	}
	out = ps.refine(out)
	for _, v := range ps.verts {
		ps.localID[v] = -1
	}
	// The arena outlives the call inside a pooled kwayScratch; do not pin
	// the caller's graph and assignment with it.
	ps.ks, ps.g, ps.part, ps.localID, ps.caps = nil, nil, nil, nil, nil
	return out
}

// registerAll registers the initial working set: every list vertex still in
// the pair. A list built before an earlier round of this pass changed one of
// the pair's parts can hold vertices that round moved to a third part; they
// are skipped.
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
		if _, deg := ps.register(v); deg > ps.maxDeg {
			ps.maxDeg = deg
		}
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
	ps.bk[0].reset(nloc, maxKey, lifo)
	ps.bk[1].reset(nloc, maxKey, lifo)
	// Reverse insertion: LIFO buckets then pop equal-gain candidates in
	// ascending local (≈ global) id — spatially coherent, see fmState.pass.
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
		l, newOver, ok := ps.pickMove(curOver)
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
			joins := lu < 0
			if joins {
				// Every earlier move registered all of its neighbours, so v is
				// u's only locally moved neighbour: u's gain is the table's
				// pre-round value, corrected for this edge like any other.
				lu, _ = ps.register(u)
			}
			w := int64(g.AdjWgt[i])
			if ps.side[lu] == s {
				ps.gain[lu] += 2 * w // the edge became external for u
			} else {
				ps.gain[lu] -= 2 * w // the edge became internal for u
			}
			if joins {
				ps.bk[0].grow(len(ps.verts))
				ps.bk[1].grow(len(ps.verts))
				ps.bk[ps.side[lu]].insert(lu, satKey(ps.gain[lu], maxKey))
				if ps.ks.onRegister != nil {
					ps.ks.onRegister(ps, lu)
				}
			} else if !ps.locked[lu] {
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

// register adds vertex v (in part a or b, not yet local) to the working set
// with its gain at the pre-round state, read from the connectivity table,
// and returns its local id and its weighted degree into a ∪ b.
func (ps *pairScratch) register(v int32) (int32, int64) {
	to, s := ps.b, int8(0)
	if ps.part[v] == ps.b {
		to, s = ps.a, 1
	}
	own, ext := ps.ks.ownWeight(v), ps.ks.connWeight(v, to)
	gv := ext - own
	l := int32(len(ps.verts))
	ps.localID[v] = l
	ps.verts = append(ps.verts, v)
	ps.gain = append(ps.gain, gv)
	ps.side = append(ps.side, s)
	ps.locked = append(ps.locked, false)
	return l, own + ext
}

// pickMove selects the best admissible move from either direction's buckets:
// look at each side's top candidate, drop candidates that would worsen the
// pair overage (they re-enter when a neighbour move changes their gain), and
// take the (overage, gain)-best of the two off its buckets. A second probe
// round avoids stalling on a single inadmissible top entry.
func (ps *pairScratch) pickMove(curOver int64) (int32, int64, bool) {
	for probe := 0; probe < 2; probe++ {
		best := int32(-1)
		var bestOver, bestGain int64
		for s := 0; s < 2; s++ {
			l, ok := ps.bk[s].peekMax()
			if !ok {
				continue
			}
			no := ps.overAfter(l)
			if no > curOver {
				ps.bk[s].remove(l)
				continue
			}
			if best < 0 || no < bestOver || (no == bestOver && ps.gain[l] > bestGain) {
				best, bestOver, bestGain = l, no, ps.gain[l]
			}
		}
		if best >= 0 {
			ps.bk[ps.side[best]].remove(best)
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
// ordering of extreme gains.
func satKey(gv int64, maxKey int32) int32 {
	if gv > int64(maxKey) {
		return maxKey
	}
	if gv < -int64(maxKey) {
		return -maxKey
	}
	return int32(gv)
}
