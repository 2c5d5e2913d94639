package partition

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// RefineOptions controls a Refiner.
type RefineOptions struct {
	// ImbalanceTol is the per-constraint balance tolerance (default 1.05).
	ImbalanceTol float64
	// Passes bounds the greedy refinement passes of one Refine (default
	// 8). Within it, a Refine stops after its first pass as soon as a pass
	// leaves no part over a cap or does not lower the total cap overage,
	// and the caller of Refine may bound the passes further (the warm
	// path's finest level and diffusion polish run at most two).
	Passes int
	// Parallelism bounds the worker goroutines of the candidate scans
	// (<= 0: one per core). The refined assignment is byte-identical at
	// every setting; see Options.Parallelism.
	Parallelism int
}

// Refiner is the partitioner's one k-way refinement engine: greedy
// multi-constraint boundary passes on the part-connectivity table (Refine),
// optionally biased against migration, and sequential k-way FM passes on the
// same table (Climb). The warm path (internal/repart) refines greedily
// only; the cold constructions — PolishRB and DirectKWay — climb as well,
// because from a poor start only hill-climbing through negative-gain moves
// finds the cut that greedy passes leave behind.
//
// One Refiner serves one refinement run: it owns a single k-way arena,
// sized by NewRefiner for the finest graph, and every level of a
// coarse-to-fine hierarchy and every move between refinements reuse it.
// Begin lays the connectivity table of an assignment; Move, Refine and Climb
// keep it exact, so a Refine after Moves continues on the live table instead
// of building it again. Steady-state use allocates nothing once the pooled
// arena has grown to the problem size. A Refiner is not safe for concurrent
// use, and Close hands its arena back: the Refiner must not be used after
// it.
type Refiner struct {
	ks      *kwayScratch
	k       int
	opt     RefineOptions
	pool    *graph.Pool
	g       *graph.Graph // the graph of the live table, set by Begin
	part    []int32      // the assignment the live table describes
	builds  int          // tables laid by Begin
	climbed climbStats   // the work of every Climb so far
}

// NewRefiner returns a refiner into k parts whose arena is reserved for g,
// the finest graph it will refine, and part, that graph's assignment: the
// vertex-sized arrays hold g's vertices and the table's entry arena holds a
// row entry for every edge end part cuts, so the coarser levels refined
// first do not grow it level by level. A nil part, for a finest assignment
// that does not exist yet, reserves no entries.
func NewRefiner(g *graph.Graph, part []int32, k int, opt RefineOptions) (*Refiner, error) {
	n := g.NumVertices()
	if part != nil && len(part) != n {
		return nil, fmt.Errorf("partition: %d assignments for %d vertices", len(part), n)
	}
	if k < 1 {
		return nil, errBadK(k)
	}
	if opt.ImbalanceTol <= 1 {
		opt.ImbalanceTol = DefaultImbalanceTol
	}
	if opt.Passes <= 0 {
		opt.Passes = DefaultRefinePasses
	}
	ks := getKwayScratch(n)
	ks.reserve(g, part, k)
	r := &ks.ref
	*r = Refiner{ks: ks, k: k, opt: opt, pool: graph.NewPool(opt.Parallelism)}
	return r, nil
}

// Begin lays the part weights, caps and connectivity table of part on g;
// later Moves and Refines update part in place. part must stay the
// caller's live assignment until the next Begin.
func (r *Refiner) Begin(g *graph.Graph, part []int32) error {
	if len(part) != g.NumVertices() {
		return fmt.Errorf("partition: %d assignments for %d vertices", len(part), g.NumVertices())
	}
	if err := checkLabels(part, r.k); err != nil {
		return err
	}
	ks := r.ks
	r.g, r.part = g, part
	ks.caps = kwayCapsInto(ks.caps, g, r.k, r.opt.ImbalanceTol)
	ks.begin(g, part, r.k)
	r.builds++
	return nil
}

// Refine runs greedy passes over the live table, biased against moving a
// vertex v off origin[v] by pen[v] edge-weight units: moving it back to its
// origin earns the same. Balance-restoring moves stay admissible whatever
// the penalty — the bias steers which vertices migrate, it never blocks
// rebalancing. A nil origin, or a nil pen, is a zero bias; the caller keeps
// |gain| + pen[v] inside int64. Cancelling ctx stops at the next pass
// boundary; the assignment is always left consistent.
//
// The passes stop by balance (greedyPasses): after the first, another
// runs only while the total cap overage is positive and the last pass
// lowered it, and never more than RefineOptions.Passes, nor more than
// passes when passes > 0.
func (r *Refiner) Refine(ctx context.Context, origin []int32, pen []int64, passes int) error {
	n := len(r.part)
	var bias moveBias
	if origin != nil {
		if len(origin) != n {
			return fmt.Errorf("partition: origin length %d, want %d", len(origin), n)
		}
		if pen != nil {
			if len(pen) != n {
				return fmt.Errorf("partition: penalty length %d, want %d", len(pen), n)
			}
			bias = moveBias{origin: origin, pen: pen}
		}
	}
	ks := r.ks
	span := obs.StartSpan(ctx, "partition/refine")
	var st kwayStats
	if n > 0 && r.k > 1 {
		if ks.prune {
			// The visit set for this bias: built, or rebuilt from the
			// boundary lists the Moves since the last Refine kept.
			ks.track(r.g, r.part, r.k, ks.caps, bias)
		}
		bound := r.opt.Passes
		if passes > 0 {
			bound = min(bound, passes)
		}
		st = ks.greedyPasses(ctx, r.g, r.part, r.k, ks.caps, bound, r.pool, bias)
	}
	span.SetStr("stage", "refine_kway")
	span.SetInt("vertices", int64(n))
	st.annotate(span)
	span.End()
	return nil
}

// Move moves vertex v of the live assignment to part to, keeping the part
// weights and the table exact.
func (r *Refiner) Move(v, to int32) { r.ks.moveVertex(r.g, r.part, v, to) }

// PartWeights returns the live part weights, part p's weight on constraint
// c at p·NCon + c. The slice is the refiner's own: read it, do not write it.
func (r *Refiner) PartWeights() []int64 { return r.ks.pw[:r.k*r.g.NCon] }

// Caps returns the per-constraint part weight caps of the live graph
// (kwayCapsInto at the refiner's tolerance).
func (r *Refiner) Caps() []int64 { return r.ks.caps }

// RowLen returns the length of vertex v's connectivity row in the live
// table: how many parts other than its own v has an edge into, 0 when every
// neighbour shares its part.
func (r *Refiner) RowLen(v int32) int { return int(r.ks.rowN[v]) }

// RowEntry returns entry i < RowLen(v) of v's row: a part other than v's
// own and v's edge weight into it. A row keeps its parts in no particular
// order.
func (r *Refiner) RowEntry(v int32, i int) (p int32, w int64) {
	e := r.ks.ents[r.ks.rowAt[v]+int32(i)]
	return e.p, e.w
}

// MaxImbalance returns the worst per-constraint imbalance of the live part
// weights: MaxImbalanceOf of the live assignment, without its scan.
func (r *Refiner) MaxImbalance() float64 {
	res := Result{NumParts: r.k, PartWeights: nestWeights(r.PartWeights(), r.k, r.g.NCon)}
	return res.MaxImbalance()
}

// Result returns the live assignment as a Result, equal to NewResult's: its
// part weights copied from the live ones and its edge cut summed over the
// table's rows. Part is the caller's live assignment itself.
func (r *Refiner) Result() *Result {
	ks := r.ks
	var cut int64
	for v, at := range ks.rowAt[:len(r.part)] {
		if at >= 0 {
			for _, e := range ks.ents[at : at+ks.rowN[v]] {
				cut += e.w
			}
		}
	}
	pw := nestWeights(slices.Clone(r.PartWeights()), r.k, r.g.NCon)
	return &Result{Part: r.part, NumParts: r.k, PartWeights: pw, EdgeCut: cut / 2}
}

// TableBuilds returns how many connectivity tables Begin has laid.
func (r *Refiner) TableBuilds() int { return r.builds }

// Close returns the arena to its pool.
func (r *Refiner) Close() {
	ks := r.ks
	ks.tracking, ks.listed, ks.vbias = false, false, moveBias{} // do not pin the caller's arrays
	*r = Refiner{}
	putKwayScratch(ks)
}

// Greedy k-way refinement (METIS/ParMETIS style boundary passes) on the
// connectivity table of conntable.go. One pass
// is two sub-passes: the first moves vertices only to higher part ids than
// their own, the second only to lower ones, so two vertices can never swap
// across a boundary in the same sub-pass. A sub-pass
//
//  1. scans the visit set (below) in chunks on the graph.Pool against the
//     read-only table and part weights, and keeps every vertex whose best
//     move (bestMove) is admissible;
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

// greedyStop says why a Refine's greedy passes ended; it is the stop's
// name on a partition/refine span.
type greedyStop string

const (
	stopNone      greedyStop = "none"      // no pass ran: no vertex, or one part
	stopBalanced  greedyStop = "balanced"  // no part over a cap
	stopStalled   greedyStop = "stalled"   // the last pass did not lower the overage
	stopPassCap   greedyStop = "pass_cap"  // the pass bound ran out
	stopCancelled greedyStop = "cancelled" // the context was cancelled
)

// greedyPasses runs at most passes greedy passes over the live table and
// stops by balance: after each pass it ends when no part is over a cap
// (stopBalanced) or the pass did not lower the total cap overage
// (stopStalled), so the passes after the first run only while they repair
// balance. A pass that commits nothing lowers nothing. Cancelling ctx stops
// at the next pass boundary.
//
// On a warm start the cut-only passes pay little: on the drift benchmark
// each moved a few dozen vertices after visiting thousands.
func (ks *kwayScratch) greedyPasses(ctx context.Context, g *graph.Graph, part []int32, k int, caps []int64, passes int, pool *graph.Pool, bias moveBias) kwayStats {
	st := kwayStats{stop: stopPassCap}
	prev := ks.overage(k, caps)
	for pass := 0; pass < passes; pass++ {
		if ctx.Err() != nil {
			st.stop = stopCancelled
			break
		}
		st.passes++
		ks.greedySubPass(g, part, k, caps, pool, bias, true, &st)
		ks.greedySubPass(g, part, k, caps, pool, bias, false, &st)
		over := ks.overage(k, caps)
		if over == 0 {
			st.stop = stopBalanced
			break
		}
		if over >= prev {
			st.stop = stopStalled
			break
		}
		prev = over
	}
	return st
}

// overage returns the total cap overage of the live part weights: the
// weight above the cap summed over every part and constraint.
func (ks *kwayScratch) overage(k int, caps []int64) int64 {
	ncon := len(caps)
	var over int64
	for i, w := range ks.pw[:k*ncon] {
		over += overOf(w, caps[i%ncon])
	}
	return over
}

// greedySubPass runs one sub-pass: moves to higher part ids when up, to
// lower ones otherwise. The scan visits the visit set when the prune holds,
// building it first if the arena keeps none for these caps and this bias.
func (ks *kwayScratch) greedySubPass(g *graph.Graph, part []int32, k int, caps []int64, pool *graph.Pool, bias moveBias, up bool, st *kwayStats) {
	n := len(part)
	if ks.prune && !ks.visitFor(caps, bias) {
		ks.track(g, part, k, caps, bias)
	}
	if ks.tracking {
		st.visited += ks.visitCount()
	} else {
		st.visited += ks.boundaryCount()
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
		m, ok := ks.bestMove(g, part, caps, bias, c.v, greedyDir(up))
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
// [lo, hi), in ascending vertex order. It only reads the arena, so chunks
// may run concurrently. With a visit set kept for these caps and this bias
// it evaluates the set's vertices only; otherwise it passes over a vertex
// without a row, or one cannotMove rules out (after markOver), without
// evaluating a move.
func (ks *kwayScratch) scanMoves(g *graph.Graph, part []int32, caps []int64, bias moveBias, up bool, lo, hi int, out []greedyMove) []greedyMove {
	if ks.visitFor(caps, bias) {
		for w := lo / 64; w*64 < hi; w++ {
			word := ks.visit[w]
			base := w * 64
			if base < lo {
				word &^= 1<<(lo-base) - 1
			}
			if hi-base < 64 {
				word &= 1<<(hi-base) - 1
			}
			for ; word != 0; word &= word - 1 {
				v := int32(w*64 + bits.TrailingZeros64(word))
				if m, ok := ks.bestMove(g, part, caps, bias, v, greedyDir(up)); ok {
					out = append(out, m)
				}
			}
		}
		return out
	}
	for v := int32(lo); v < int32(hi); v++ {
		if ks.rowN[v] == 0 || ks.prune && ks.cannotMove(g, part, bias, v) {
			continue
		}
		if m, ok := ks.bestMove(g, part, caps, bias, v, greedyDir(up)); ok {
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
// (kwayScratch.prune), and over-cap lists that markOver made from the
// current part weights.
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

// The visit set. While the prune holds, the arena keeps, for one set of caps
// and one bias, the set of vertices cannotMove does not rule out: the
// vertices with a row whose gain bound is positive, plus those weighing in a
// constraint on which their part is over its cap. The scan iterates it in
// ascending vertex order (a bitset, visit), so it never asks about the
// vertices the prune passes over, and it finds exactly the candidates the
// pruned scan of all n vertices finds, in the same order.
//
// The set is exact after every commit, not only at sub-pass starts:
// moveVertex re-evaluates the moved vertex and its neighbours, the only
// vertices whose row, net weight or part a move changes, and, when the move
// takes its source or target part across one of its caps, lists the
// over-cap constraints again (markOver) and re-evaluates every boundary
// vertex of that part. Per-part boundary lists (bhead, bnext, bprev) name
// those vertices without a scan. A bias change rebuilds the set from the
// lists (track); the climb, which does not scan, drops both, and builds
// and keeps the lists from its first cap crossing on to re-key the parts
// that cross.

// unlisted marks bprev[v] of a vertex on no boundary list.
const unlisted = -2

// visitFor reports whether the arena keeps a visit set for caps and bias.
// The bias is compared by identity: a caller that changes a bias's contents
// in place rebuilds the set itself (Refiner.Refine always does).
func (ks *kwayScratch) visitFor(caps []int64, bias moveBias) bool {
	return ks.tracking && ks.vbias.same(bias) && slices.Equal(ks.vcaps, caps)
}

// track builds the visit set of (g, part, k) for caps and bias, and the
// boundary lists first if moveVertex has not kept them since begin.
func (ks *kwayScratch) track(g *graph.Graph, part []int32, k int, caps []int64, bias moveBias) {
	n := len(part)
	ks.vcaps = append(ks.vcaps[:0], caps...)
	ks.vbias = bias
	if !ks.listed {
		ks.listBoundary(part, k)
	}
	ks.tracking = true
	ks.markOver(k, caps)
	ks.visit = growU64(ks.visit, (n+63)/64)
	clear(ks.visit)
	for p := int32(0); p < int32(k); p++ {
		ks.revisitPart(g, part, p)
	}
}

// listBoundary builds every part's boundary list of (part, k) from the
// table's rows.
func (ks *kwayScratch) listBoundary(part []int32, k int) {
	n := len(part)
	ks.bhead = growI32(ks.bhead, k)
	for p := range ks.bhead {
		ks.bhead[p] = -1
	}
	ks.bnext = growI32(ks.bnext, n)
	ks.bprev = growI32(ks.bprev, n)
	for v := int32(n) - 1; v >= 0; v-- {
		ks.bprev[v] = unlisted
		if ks.rowN[v] > 0 {
			ks.list(part, v)
		}
	}
	ks.listed = true
}

// appendBoundary appends part p's boundary list to dst.
func (ks *kwayScratch) appendBoundary(dst []int32, p int32) []int32 {
	for v := ks.bhead[p]; v >= 0; v = ks.bnext[v] {
		dst = append(dst, v)
	}
	return dst
}

// list puts v at the head of its part's boundary list.
func (ks *kwayScratch) list(part []int32, v int32) {
	p := part[v]
	h := ks.bhead[p]
	ks.bnext[v], ks.bprev[v] = h, -1
	if h >= 0 {
		ks.bprev[h] = v
	}
	ks.bhead[p] = v
}

// unlist takes v off its part's boundary list, if it is on it.
func (ks *kwayScratch) unlist(part []int32, v int32) {
	prev, next := ks.bprev[v], ks.bnext[v]
	if prev == unlisted {
		return
	}
	if prev >= 0 {
		ks.bnext[prev] = next
	} else {
		ks.bhead[part[v]] = next
	}
	if next >= 0 {
		ks.bprev[next] = prev
	}
	ks.bprev[v] = unlisted
}

// revisit brings v's list entry, and its visit bit while tracking, up to
// date with its row and part.
func (ks *kwayScratch) revisit(g *graph.Graph, part []int32, v int32) {
	if ks.rowN[v] == 0 {
		ks.unlist(part, v)
		if ks.tracking {
			ks.mark(v, false)
		}
		return
	}
	if ks.bprev[v] == unlisted {
		ks.list(part, v)
	}
	if ks.tracking {
		ks.mark(v, !ks.cannotMove(g, part, ks.vbias, v))
	}
}

// revisitPart re-evaluates every boundary vertex of part p.
func (ks *kwayScratch) revisitPart(g *graph.Graph, part []int32, p int32) {
	for v := ks.bhead[p]; v >= 0; v = ks.bnext[v] {
		ks.mark(v, !ks.cannotMove(g, part, ks.vbias, v))
	}
}

// mark puts v in the visit set, or takes it out.
func (ks *kwayScratch) mark(v int32, in bool) {
	if in {
		ks.visit[v/64] |= 1 << (v % 64)
	} else {
		ks.visit[v/64] &^= 1 << (v % 64)
	}
}

// crossesCap reports whether adding d·wv to the part weights pw takes them
// across one of the caps on a constraint.
func crossesCap(pw []int64, wv []int32, d int64, caps []int64) bool {
	for c, w := range wv {
		if w != 0 && (pw[c] > caps[c]) != (pw[c]+d*int64(w) > caps[c]) {
			return true
		}
	}
	return false
}

// visitCount returns the size of the visit set.
func (ks *kwayScratch) visitCount() int {
	c := 0
	for _, w := range ks.visit {
		c += bits.OnesCount64(w)
	}
	return c
}

// boundaryCount returns the number of vertices with a row: what a scan
// without a visit set looks at.
func (ks *kwayScratch) boundaryCount() int {
	c := 0
	for _, nr := range ks.rowN {
		if nr > 0 {
			c++
		}
	}
	return c
}

// moveDir restricts the targets bestMove considers: higher part ids than
// the vertex's own, lower ones, or any (the climb's).
type moveDir int8

const (
	dirUp moveDir = iota
	dirDown
	dirBoth
)

// greedyDir is the direction of a greedy sub-pass.
func greedyDir(up bool) moveDir {
	if up {
		return dirUp
	}
	return dirDown
}

// bestMove returns v's best move in direction dir against the current table
// and part weights — the lowest overage change, then the highest biased
// gain, then the lowest part id — and whether it is admissible for a greedy
// sub-pass: it lowers the total cap overage, or keeps it and has a positive
// gain. In dirBoth it weighs every target, whatever its gain.
func (ks *kwayScratch) bestMove(g *graph.Graph, part []int32, caps []int64, bias moveBias, v int32, dir moveDir) (greedyMove, bool) {
	best := greedyMove{v: v, to: -1}
	if ks.rowN[v] == 0 {
		return best, false
	}
	from, ncon := part[v], g.NCon
	wv := g.WeightVec(v)
	// The overage change of from (<= 0) and v's own weight, taken when the
	// first move in direction dir needs them.
	dFrom, own := int64(1), int64(0)
	at := ks.rowAt[v]
	for _, e := range ks.ents[at : at+ks.rowN[v]] {
		if dir != dirBoth && (e.p > from) != (dir == dirUp) {
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
		if dFrom == 0 && gain <= 0 && dir != dirBoth {
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
