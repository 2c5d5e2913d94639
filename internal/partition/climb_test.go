package partition

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"tempart/internal/graph"
)

// climbRef is the climb by adjacency scan: it keeps no connectivity table
// and no buckets, only the assignment, its own part weights and, per vertex,
// the key, state and queue stamp the climb's definition gives it, each key
// computed from a scan of the vertex's adjacency. It picks the highest key,
// the most recently queued first — the order of LIFO buckets — and before
// each move it re-evaluates every vertex by scan (verify), so a key that an
// event should have changed and did not is caught where it happens.
type climbRef struct {
	g      *graph.Graph
	part   []int32
	k      int
	caps   []int64
	pw     [][]int64
	key    []int32
	stamp  []int64
	queued []bool
	state  []climbState
	clock  int64
	bound  int32
	tried  []greedyMove
	kept   int
	row    []connEntry // scan's buffer
	// parks and demotions count the picks that parked or demoted a vertex.
	parks, demotions int
}

func newClimbRef(g *graph.Graph, part []int32, k int, caps []int64) *climbRef {
	n := g.NumVertices()
	return &climbRef{g: g, part: part, k: k, caps: caps, pw: partWeights(g, part, k),
		key: make([]int32, n), stamp: make([]int64, n), queued: make([]bool, n), state: make([]climbState, n)}
}

// scan returns v's row and own weight by adjacency scan. The row is valid
// until the next scan.
func (c *climbRef) scan(v int32) ([]connEntry, int64) {
	var own int64
	c.row, own = scanConnRow(c.g, c.part, v, c.row[:0])
	return c.row, own
}

func (c *climbRef) relieves(v int32) bool {
	for i, w := range c.g.WeightVec(v) {
		if w > 0 && c.pw[c.part[v]][i] > c.caps[i] {
			return true
		}
	}
	return false
}

// keyOf is climbKey by scan; v has a row.
func (c *climbRef) keyOf(v int32) int32 {
	row, own := c.scan(v)
	return c.keyFrom(v, row, own)
}

// keyFrom is climbKey of v with row and own weight row and own.
func (c *climbRef) keyFrom(v int32, row []connEntry, own int64) int32 {
	best := row[0].w
	for _, e := range row[1:] {
		best = max(best, e.w)
	}
	key := satKey(best-own, c.bound)
	if c.state[v] != climbDemoted && c.relieves(v) {
		key += 2*c.bound + 1
	}
	return key
}

// target is bestMove in dirBoth by scan.
func (c *climbRef) target(v int32) greedyMove {
	row, own := c.scan(v)
	from := c.part[v]
	wv := c.g.WeightVec(v)
	best := greedyMove{v: v, to: -1}
	for _, e := range row {
		var d int64
		for i, cp := range c.caps {
			fw, tw := c.pw[from][i], c.pw[e.p][i]
			d += overOf(fw-int64(wv[i]), cp) + overOf(tw+int64(wv[i]), cp) - overOf(fw, cp) - overOf(tw, cp)
		}
		gain := e.w - own
		if best.to < 0 || d < best.dOver || (d == best.dOver && (gain > best.gain || (gain == best.gain && e.p < best.to))) {
			best.to, best.dOver, best.gain = e.p, d, gain
		}
	}
	return best
}

func (c *climbRef) enqueue(v int32, key int32) {
	c.clock++
	c.key[v], c.stamp[v], c.queued[v] = key, c.clock, true
}

// rekey is climbRekey: an event on v.
func (c *climbRef) rekey(v int32) {
	if c.state[v] == climbLocked {
		return
	}
	c.state[v] = climbFree
	if row, _ := c.scan(v); len(row) == 0 {
		c.queued[v] = false
		return
	}
	if key := c.keyOf(v); !c.queued[v] || key != c.key[v] {
		c.enqueue(v, key)
	}
}

func (c *climbRef) move(v, to int32) {
	for i, w := range c.g.WeightVec(v) {
		c.pw[c.part[v]][i] -= int64(w)
		c.pw[to][i] += int64(w)
	}
	c.part[v] = to
}

func (c *climbRef) crosses(p int32, wv []int32, d int64) bool {
	for i, w := range wv {
		if w != 0 && (c.pw[p][i] > c.caps[i]) != (c.pw[p][i]+d*int64(w) > c.caps[i]) {
			return true
		}
	}
	return false
}

// verify re-evaluates every vertex by adjacency scan: a vertex with a row
// that is free or demoted must be queued under the key its definition gives
// it now, and no other vertex may be queued.
func (c *climbRef) verify() error {
	for v := int32(0); v < int32(len(c.part)); v++ {
		row, own := c.scan(v)
		waiting := c.state[v] == climbFree || c.state[v] == climbDemoted
		if want := waiting && len(row) > 0; want != c.queued[v] {
			return fmt.Errorf("vertex %d in state %d with a row of %d: queued %v", v, c.state[v], len(row), c.queued[v])
		}
		if c.queued[v] {
			if key := c.keyFrom(v, row, own); key != c.key[v] {
				return fmt.Errorf("vertex %d queued under key %d, its key is %d", v, c.key[v], key)
			}
		}
	}
	return nil
}

// pass runs one climb pass and returns the moves it kept.
func (c *climbRef) pass() (int, error) {
	n := int32(len(c.part))
	clear(c.state)
	clear(c.queued)
	nb, maxDeg := 0, int64(1)
	for v := int32(0); v < n; v++ {
		if row, own := c.scan(v); len(row) > 0 {
			nb++
			wdeg := own
			for _, e := range row {
				wdeg += e.w
			}
			maxDeg = max(maxDeg, wdeg)
		}
	}
	if nb == 0 {
		return 0, nil
	}
	c.bound = satKey(maxDeg, int32(4*nb+64))
	for v := n - 1; v >= 0; v-- {
		if row, _ := c.scan(v); len(row) > 0 {
			c.enqueue(v, c.keyOf(v))
		}
	}
	over := totalOverage(c.pw, c.caps)
	bestOver, gain, bestGain, bestAt := over, int64(0), int64(0), 0
	var log []climbStep
	verified := -1 // the number of moves made when verify last ran
	for stall, maxStall := 0, 2*(64+nb/16); stall < maxStall; {
		// Parks and demotions change the picked vertex only, so a check
		// after every move covers every pick.
		if verified < len(log) {
			if err := c.verify(); err != nil {
				return 0, fmt.Errorf("after %d moves: %v", len(log), err)
			}
			verified = len(log)
		}
		pick := int32(-1)
		for v := int32(0); v < n; v++ {
			if c.queued[v] && (pick < 0 || c.key[v] > c.key[pick] || c.key[v] == c.key[pick] && c.stamp[v] > c.stamp[pick]) {
				pick = v
			}
		}
		if pick < 0 {
			break
		}
		v := pick
		c.queued[v] = false
		m := c.target(v)
		if m.dOver > 0 {
			c.state[v] = climbParked
			c.parks++
			continue
		}
		if m.dOver == 0 && c.state[v] == climbFree && c.relieves(v) {
			c.state[v] = climbDemoted
			c.demotions++
			c.enqueue(v, c.keyOf(v))
			continue
		}
		c.tried = append(c.tried, m)
		from := c.part[v]
		wv := c.g.WeightVec(v)
		crossFrom, crossTo := c.crosses(from, wv, -1), c.crosses(m.to, wv, 1)
		c.state[v] = climbLocked
		c.move(v, m.to)
		log = append(log, climbStep{v: v, from: from})
		for _, u := range c.g.Adjncy[c.g.Xadj[v]:c.g.Xadj[v+1]] {
			c.rekey(u)
		}
		if crossFrom || crossTo {
			for u := int32(0); u < n; u++ {
				if p := c.part[u]; crossFrom && p == from || crossTo && p == m.to {
					c.rekey(u)
				}
			}
		}
		over += m.dOver
		gain += m.gain
		if over < bestOver || over == bestOver && gain > bestGain {
			bestOver, bestGain, bestAt = over, gain, len(log)
			stall = 0
		} else {
			stall++
		}
	}
	if got := totalOverage(c.pw, c.caps); got != over {
		return 0, fmt.Errorf("overage %d after the pass, the moves' changes sum to %d", got, over)
	}
	for i := len(log) - 1; i >= bestAt; i-- {
		c.move(log[i].v, log[i].from)
	}
	c.kept += bestAt
	return bestAt, nil
}

// TestClimbMatchesReference: the climb on the live table makes exactly the
// moves of climbRef, which recomputes every key and target by adjacency
// scan before each move under the same keys, tie-breaks, stall limit and
// rollback: the same tried moves in the same order, the same kept prefixes
// and the same final assignment. The inputs are the refineInputs graphs,
// unbiased, from a striped start and, below 10 000 vertices, from one that
// puts a third of the vertices in part 0, and grids with negative vertex or
// edge weights.
// After the climb the table and part weights must equal a fresh scan's.
func TestClimbMatchesReference(t *testing.T) {
	inputs := refineInputs(t)
	inputs = append(inputs,
		refineInput{"grid-negative-vertex-weights", signedGrid(t, 30, 30, 2, -2, 1), 6, false},
		refineInput{"grid-negative-edge-weights", signedGrid(t, 30, 30, 1, 1, -9), 6, false})
	var raised, demoted, parked int
	for _, in := range inputs {
		if in.bias {
			continue // the climb is unbiased
		}
		g, k := in.g, in.k
		n := g.NumVertices()
		skewed := stripedAssignment(n, k)
		for v := range skewed[:n/3] {
			skewed[v] = 0
		}
		starts := [][]int32{stripedAssignment(n, k), skewed}
		if n > 10000 {
			starts = starts[:1] // the reference's checks cost O(n) a move
		}
		for si, start := range starts {
			t.Run(fmt.Sprintf("%s/start%d", in.name, si), func(t *testing.T) {
				const passes = 2
				got := slices.Clone(start)
				r, err := NewRefiner(g, got, k, RefineOptions{Parallelism: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if err := r.Begin(g, got); err != nil {
					t.Fatal(err)
				}
				var moves []greedyMove
				r.ks.onClimb = func(m greedyMove) { moves = append(moves, m) }
				defer func() { r.ks.onClimb = nil }()
				r.Climb(context.Background(), passes)

				ref := newClimbRef(g, slices.Clone(start), k, r.Caps())
				refPasses := 0
				for refPasses < passes {
					refPasses++
					kept, err := ref.pass()
					if err != nil {
						t.Fatalf("reference pass %d: %v", refPasses, err)
					}
					if kept == 0 {
						break
					}
				}
				demoted += ref.demotions
				parked += ref.parks
				for _, m := range ref.tried {
					if m.dOver < 0 {
						raised++
					}
				}
				if len(moves) == 0 {
					t.Fatal("the climb tried no move: nothing was compared")
				}
				if len(moves) != len(ref.tried) {
					t.Fatalf("%d moves tried, the reference tried %d", len(moves), len(ref.tried))
				}
				for i := range moves {
					if moves[i] != ref.tried[i] {
						t.Fatalf("move %d: the climb tried %+v, the reference %+v", i, moves[i], ref.tried[i])
					}
				}
				if c := r.climbed; c.passes != refPasses || c.tried != len(ref.tried) || c.kept != ref.kept {
					t.Fatalf("climb %+v; reference %d passes, %d tried, %d kept", c, refPasses, len(ref.tried), ref.kept)
				}
				if d := diffVertices(got, ref.part); d > 0 {
					t.Fatalf("the climb and the reference end %d vertices apart", d)
				}
				if err := connTableErr(g, got, r.ks); err != nil {
					t.Fatalf("after the climb: %v", err)
				}
				if pw, want := r.PartWeights(), slices.Concat(partWeights(g, got, k)...); !slices.Equal(pw, want) {
					t.Fatalf("after the climb: part weights %v, a fresh count %v", pw, want)
				}
				t.Logf("%+v", r.climbed)
			})
		}
	}
	// Every branch of the pick must have been taken somewhere.
	if raised == 0 || demoted == 0 || parked == 0 {
		t.Errorf("%d overage-lowering moves, %d demotions, %d parks: a branch is untested", raised, demoted, parked)
	}
}
