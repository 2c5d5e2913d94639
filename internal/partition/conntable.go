package partition

import (
	"slices"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// This file holds the k-way arena and its part-connectivity table, which
// the Refiner's greedy passes (refine_kway.go) and its climb (climb.go)
// read and patch (DESIGN §5.2, "K-way refinement: one connectivity table").

// connEntry is one entry of a vertex's connectivity row: its edges into one
// adjacent part other than its own.
type connEntry struct {
	p int32 // the adjacent part
	n int32 // edge count into p; the entry is dropped when it reaches 0
	w int64 // edge weight into p
}

// kwayStats counts the work of one greedy refinement call (greedyPasses):
// visited counts the vertices the scans looked at, candidates their
// admissible moves and stale those the commit re-check rejected, and stop
// says why the passes ended.
type kwayStats struct {
	passes, moves              int
	visited, candidates, stale int
	stop                       greedyStop
}

// annotate attaches the counters to a refinement span.
func (s kwayStats) annotate(span obs.Span) {
	span.SetInt("passes", int64(s.passes))
	span.SetInt("visited", int64(s.visited))
	span.SetInt("candidates", int64(s.candidates))
	span.SetInt("stale", int64(s.stale))
	span.SetStr("stop", string(s.stop))
	span.SetInt("moves", int64(s.moves))
}

// kwayScratch is the pooled arena of the k-way refinement — the greedy
// passes of refine_kway.go and the climb of climb.go, which share its part
// weights and connectivity table: every per-pass working array lives here,
// so steady-state refinement allocates nothing once the buffers have grown
// to the problem size.
type kwayScratch struct {
	caps []int64 // kwayCapsInto buffer (Refiner)
	pw   []int64 // part weights, k*ncon flattened

	// The part-connectivity table of the call, exact after every move. A
	// vertex that has had a neighbour in another part during the call owns
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

	// The greedy passes' candidate moves: the sub-pass's, and per scan chunk.
	cands      []greedyMove
	chunkCands [][]greedyMove

	// The climb's bucket queue over the boundary, each vertex's state in the
	// pass, and the pass's move log (climb.go).
	cb     gainBuckets
	cstate []climbState
	cmoves []climbStep

	// Test-only hooks, nil otherwise: onCommit is called after every greedy
	// sub-pass, onGreedyMove with every greedy move just before it is
	// committed, onClimb with every move a climb tries, just before it.
	onCommit     func()
	onGreedyMove func(m greedyMove, up bool)
	onClimb      func(m greedyMove)

	// The refiner that holds this arena (NewRefiner), kept here so that
	// taking one from the pool allocates nothing.
	ref Refiner
}

// kwayScratchPools is size-classed by the capacity of net, one of the
// arena's vertex-count-sized arrays.
var kwayScratchPools graph.SizedPool[kwayScratch]

// getKwayScratch returns an arena whose net array covers n vertices; begin
// and reserve grow the others to the graph at hand.
func getKwayScratch(n int) *kwayScratch {
	ks := kwayScratchPools.Get(n)
	ks.net = growI64(ks.net, n)
	return ks
}

func putKwayScratch(ks *kwayScratch) { kwayScratchPools.Put(ks, cap(ks.net)) }

// reserve sizes the arena for tables of graphs up to g's size: its
// vertex-sized arrays for g's vertices, its entry arena, with begin's 1/8
// headroom, for one entry per edge end that part cuts on g — at least the
// rows of part's table — and the part-sized ones for k parts. begin on g or
// on a coarsening of it then lays its rows in one sweep unless refinement
// has cut more edges since. A nil part reserves no entries.
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
	if part == nil {
		return
	}
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

// begin prepares the arena for refinement over (g, part, k): the part
// weights and the connectivity table that every move keeps exact.
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
		fromCrosses, toCrosses = crossesCap(fw, wv, -1, ks.vcaps), crossesCap(tw, wv, 1, ks.vcaps)
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
