package partition

import "tempart/internal/graph"

// bisection is the working state of a 2-way split of a graph: the side of
// each vertex (0 or 1) plus per-side, per-constraint weights and caps.
type bisection struct {
	g     *graph.Graph
	where []int32
	side  [2][]int64 // [side][constraint]
	caps  [2][]int64 // balance caps per side
	tot   []int64    // per-constraint totals (for violation normalisation)
}

// newBisection points the arena's bisection at (g, where) and sums the side
// weights. A 2-way pipeline holds one bisection at a time (trial, level,
// balance stage), so the struct and its weight vectors live in sc.
func newBisection(g *graph.Graph, where []int32, caps0, caps1 []int64, sc *scratch) *bisection {
	b := &sc.bis
	b.g, b.where, b.caps = g, where, [2][]int64{caps0, caps1}
	for s := range b.side {
		b.side[s] = growI64(b.side[s], g.NCon)
		clear(b.side[s])
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		s := where[v]
		for c := 0; c < g.NCon; c++ {
			b.side[s][c] += int64(g.Weight(int32(v), c))
		}
	}
	b.tot = growI64(b.tot, g.NCon)
	for c := 0; c < g.NCon; c++ {
		b.tot[c] = b.side[0][c] + b.side[1][c]
	}
	return b
}

// violation is the normalised total balance overshoot across both sides and
// all constraints; zero means the bisection satisfies every cap.
func (b *bisection) violation() float64 {
	var v float64
	for c := 0; c < b.g.NCon; c++ {
		v += b.violationOf(c, b.side[0][c], b.side[1][c])
	}
	return v
}

func (b *bisection) violationOf(c int, s0, s1 int64) float64 {
	var v float64
	if over := s0 - b.caps[0][c]; over > 0 {
		v += float64(over) / float64(b.tot[c]+1)
	}
	if over := s1 - b.caps[1][c]; over > 0 {
		v += float64(over) / float64(b.tot[c]+1)
	}
	return v
}

// violationAfterMove returns the violation if vertex v moved to the other
// side.
func (b *bisection) violationAfterMove(v int32) float64 {
	s := b.where[v]
	var total float64
	w := b.g.WeightVec(v)
	for c := 0; c < b.g.NCon; c++ {
		s0, s1 := b.side[0][c], b.side[1][c]
		d := int64(w[c])
		if s == 0 {
			s0 -= d
			s1 += d
		} else {
			s1 -= d
			s0 += d
		}
		total += b.violationOf(c, s0, s1)
	}
	return total
}

// moveViolation is violationAfterMove given the current violation cur. From
// a state within every cap (cur exactly 0) a move that keeps both sides
// within every cap leaves the violation exactly 0, which an integer cap test
// decides; any other move takes the float sum, since with very large totals
// a small overshoot can still round to a violation within the epsilon of
// betterState.
func (b *bisection) moveViolation(v int32, cur float64) float64 {
	if cur == 0 {
		s := b.where[v]
		t := 1 - s
		fits := true
		for c, w := range b.g.WeightVec(v) {
			if d := int64(w); b.side[s][c]-d > b.caps[s][c] || b.side[t][c]+d > b.caps[t][c] {
				fits = false
				break
			}
		}
		if fits {
			return 0
		}
	}
	return b.violationAfterMove(v)
}

// move flips vertex v to the other side, updating side weights.
func (b *bisection) move(v int32) {
	s := b.where[v]
	t := 1 - s
	w := b.g.WeightVec(v)
	for c := 0; c < b.g.NCon; c++ {
		b.side[s][c] -= int64(w[c])
		b.side[t][c] += int64(w[c])
	}
	b.where[v] = t
}

// trialGraph is what every initial trial on one graph shares, computed once
// per node: the split (side-0 share frac and the caps), the per-constraint
// totals — a trial starts with every vertex on side 1, so its side weights
// are (0, tot) — the negated weighted degrees growing starts its gains from,
// and the largest weighted degree, which bounds every grown gain.
type trialGraph struct {
	g      *graph.Graph
	frac   float64
	caps   [2][]int64
	tot    []int64
	negDeg []int32
	maxw   int32
}

// init computes the shared state of g for splits with share frac on side 0.
func (tg *trialGraph) init(g *graph.Graph, frac float64, caps0, caps1 []int64) {
	n := g.NumVertices()
	tg.g, tg.frac, tg.caps = g, frac, [2][]int64{caps0, caps1}
	tg.tot = growI64(tg.tot, g.NCon)
	clear(tg.tot)
	tg.negDeg = growI32(tg.negDeg, n)
	tg.maxw = 0
	for v := 0; v < n; v++ {
		for c, w := range g.WeightVec(int32(v)) {
			tg.tot[c] += int64(w)
		}
		var d int32
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			d += g.AdjWgt[i]
		}
		tg.negDeg[v] = -d
		tg.maxw = max(tg.maxw, d)
	}
}

// grow points b at where and grows one trial's side 0 into it from the seed
// vertex (growBisection).
func (tg *trialGraph) grow(b *bisection, where []int32, seed int32, sc *scratch) {
	for i := range where {
		where[i] = 1
	}
	b.g, b.where, b.caps = tg.g, where, tg.caps
	b.side[0] = growI64(b.side[0], len(tg.tot))
	clear(b.side[0])
	b.side[1] = append(b.side[1][:0], tg.tot...)
	b.tot = append(b.tot[:0], tg.tot...)
	growBisection(b, tg, seed, sc)
}

// growBisection grows side 0 of b — which must arrive with every vertex on
// side 1 — from the given seed vertex by greedy graph growing, targeting
// fraction tg.frac of every constraint, until every constraint reaches its
// target (or growth is exhausted). It draws no randomness and every working
// array is (re)initialised from tg and the scratch arena, so the assignment
// is a pure function of (graph, caps, frac, seed): that purity is what lets
// the trial loop skip a seed vertex it has already tried.
func growBisection(b *bisection, tg *trialGraph, seed int32, sc *scratch) {
	g := b.g
	n := g.NumVertices()
	side0, caps0 := b.side[0], b.caps[0]
	target := growI64(sc.growTarget, g.NCon)
	sc.growTarget = target
	for c := range target {
		target[c] = int64(float64(tg.tot[c]) * tg.frac)
	}

	// gain[v]: edges into side 0 minus edges to side 1, so tightly-connected
	// vertices are preferred (keeps the region compact → low cut). The
	// frontier is every queued vertex; all of them are on side 1. Gains
	// start as -(degree weight), everything external; a gain stays within ±
	// its vertex's degree weight, so tg.maxw sizes the frontier's buckets
	// without clamping.
	gain := append(sc.growGain[:0], tg.negDeg...)
	sc.growGain = gain
	front := &sc.buckets[0]
	front.reset(n, tg.maxw, fifo)
	front.insert(seed, gain[seed])

	parked := sc.growParked[:0] // frontier vertices that currently overshoot
	for {
		deficit := false
		for c, t := range target {
			if t > side0[c] {
				deficit = true
				break
			}
		}
		if !deficit {
			break
		}
		v, ok := front.popMax()
		if !ok {
			// Frontier exhausted: bridge through a parked vertex if any,
			// otherwise jump to a fresh seed in an unexplored component.
			if len(parked) > 0 {
				v = parked[len(parked)-1]
				parked = parked[:len(parked)-1]
				if b.where[v] == 1 {
					growTake(b, v, gain, front)
				}
				continue
			}
			fresh := int32(-1)
			for u := int32(0); u < int32(n); u++ {
				if b.where[u] == 1 && useful(g.WeightVec(u), target, side0) {
					fresh = u
					break
				}
			}
			if fresh < 0 {
				break
			}
			front.insert(fresh, gain[fresh])
			continue
		}
		w := g.WeightVec(v)
		if !useful(w, target, side0) {
			// Park v if taking it would push a saturated constraint past
			// its cap.
			overshoots := false
			for c, wc := range w {
				if wc > 0 && side0[c]+int64(wc) > caps0[c] {
					overshoots = true
					break
				}
			}
			if overshoots {
				parked = append(parked, v)
				continue
			}
		}
		growTake(b, v, gain, front)
	}
	sc.growParked = parked
}

// useful reports whether taking a vertex of weights w reduces some positive
// deficit of side 0's weights side0 against target.
func useful(w []int32, target, side0 []int64) bool {
	for c, wc := range w {
		if wc > 0 && target[c] > side0[c] {
			return true
		}
	}
	return false
}

// growTake moves v to side 0 and raises the gain of its neighbours, moving
// those still on side 1 in the frontier. Every vertex's gain stays its
// weight into side 0 minus its weight into side 1, on side 0 too, which is
// what fmState.fromGrowth reads.
func growTake(b *bisection, v int32, gain []int32, front *gainBuckets) {
	b.move(v)
	g := b.g
	for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
		u := g.Adjncy[i]
		gain[u] += 2 * g.AdjWgt[i]
		if b.where[u] == 1 {
			front.update(u, gain[u])
		}
	}
}

// pseudoPeripheral returns a vertex roughly farthest from start via two BFS
// sweeps. The second sweep depends only on the graph and the first sweep's
// end vertex far, so farthest memoizes it by far (-1: not swept yet), and
// the trials of one node that reach the same far vertex sweep from it once.
func pseudoPeripheral(g *graph.Graph, start int32, farthest []int32, sc *scratch) int32 {
	far := bfsFarthest(g, start, sc)
	if farthest[far] < 0 {
		farthest[far] = bfsFarthest(g, far, sc)
	}
	return farthest[far]
}

// bfsFarthest returns the last vertex a BFS from start reaches. The queue is
// walked by index, so it holds every reached vertex once and never regrows
// past n.
func bfsFarthest(g *graph.Graph, start int32, sc *scratch) int32 {
	n := g.NumVertices()
	seen := growBool(sc.bfsSeen, n)
	sc.bfsSeen = seen
	queue := append(growI32(sc.bfsQueue, n)[:0], start)
	sc.bfsQueue = queue
	seen[start] = true
	for head := 0; head < len(queue); head++ {
		for _, u := range g.Neighbors(queue[head]) {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return queue[len(queue)-1]
}
