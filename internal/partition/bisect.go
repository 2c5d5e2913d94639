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

// growBisection grows side 0 of b — which must arrive with every vertex on
// side 1 — from the given seed vertex by greedy graph growing, targeting
// fraction frac of every constraint, until every constraint reaches its
// target (or growth is exhausted). It draws no randomness and every working
// array is (re)initialised from the scratch arena, so the assignment is a
// pure function of (graph, caps, frac, seed): that purity is what lets the
// trial loop skip a seed vertex it has already tried.
func growBisection(b *bisection, frac float64, seed int32, sc *scratch) {
	g := b.g
	n := g.NumVertices()
	target := growI64(sc.growTarget, g.NCon)
	sc.growTarget = target
	for c := range target {
		target[c] = int64(float64(b.tot[c]) * frac)
	}

	deficit := func(c int) int64 { return target[c] - b.side[0][c] }
	anyDeficit := func() bool {
		for c := 0; c < g.NCon; c++ {
			if deficit(c) > 0 {
				return true
			}
		}
		return false
	}
	// usefulness: does taking v reduce some positive deficit?
	useful := func(v int32) bool {
		w := g.WeightVec(v)
		for c := 0; c < g.NCon; c++ {
			if w[c] > 0 && deficit(c) > 0 {
				return true
			}
		}
		return false
	}
	// overshoots: would taking v push a saturated constraint past its cap?
	overshoots := func(v int32) bool {
		w := g.WeightVec(v)
		for c := 0; c < g.NCon; c++ {
			if w[c] > 0 && b.side[0][c]+int64(w[c]) > b.caps[0][c] {
				return true
			}
		}
		return false
	}

	// gain[v]: edges into side 0 minus edges to side 1, so tightly-connected
	// vertices are preferred (keeps the region compact → low cut). The
	// frontier is every queued vertex; all of them are on side 1.
	gain := growI32(sc.growGain, n)
	sc.growGain = gain
	// Initialise gains as -(degree weight): everything external at first. A
	// gain stays within ± its vertex's degree weight, so the largest one sizes
	// the frontier's buckets without clamping.
	var maxw int32
	for v := 0; v < n; v++ {
		var d int32
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			d += g.AdjWgt[i]
		}
		gain[v] = -d
		maxw = max(maxw, d)
	}
	front := &sc.buckets[0]
	front.reset(n, maxw, fifo)
	take := func(v int32) {
		b.move(v)
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			if u := g.Adjncy[i]; b.where[u] == 1 {
				gain[u] += 2 * g.AdjWgt[i]
				front.update(u, gain[u])
			}
		}
	}
	front.insert(seed, gain[seed])

	parked := sc.growParked[:0] // frontier vertices that currently overshoot
	defer func() { sc.growParked = parked }()
	for anyDeficit() {
		v, ok := front.popMax()
		if !ok {
			// Frontier exhausted: bridge through a parked vertex if any,
			// otherwise jump to a fresh seed in an unexplored component.
			if len(parked) > 0 {
				v = parked[len(parked)-1]
				parked = parked[:len(parked)-1]
				if b.where[v] == 1 {
					take(v)
				}
				continue
			}
			fresh := int32(-1)
			for u := 0; u < n; u++ {
				if b.where[u] == 1 && useful(int32(u)) {
					fresh = int32(u)
					break
				}
			}
			if fresh < 0 {
				break
			}
			front.insert(fresh, gain[fresh])
			continue
		}
		if !useful(v) && overshoots(v) {
			parked = append(parked, v)
			continue
		}
		take(v)
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
