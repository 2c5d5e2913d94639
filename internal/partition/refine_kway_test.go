package partition

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// kwayCaps returns the caps every Refiner refines to (kwayCapsInto).
func kwayCaps(g *graph.Graph, k int, tol float64) []int64 {
	return kwayCapsInto(nil, g, k, tol)
}

// totalOverage sums the cap overshoot of every part and constraint.
func totalOverage(pw [][]int64, caps []int64) int64 {
	var over int64
	for _, w := range pw {
		for c, cp := range caps {
			over += overOf(w[c], cp)
		}
	}
	return over
}

// scanGreedyMove is bestMove by adjacency scan: v's best move in the
// sub-pass direction against the part weights pw, with the same rule —
// lowest overage change, then highest biased gain, then lowest part — and
// its admissibility.
func scanGreedyMove(g *graph.Graph, part []int32, pw [][]int64, caps []int64, bias moveBias, v int32, up bool) (greedyMove, bool) {
	from := part[v]
	var own int64
	conn := map[int32]int64{}
	for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
		if p, w := part[g.Adjncy[i]], int64(g.AdjWgt[i]); p == from {
			own += w
		} else {
			conn[p] += w
		}
	}
	wv := g.WeightVec(v)
	best := greedyMove{v: v, to: -1}
	for p, w := range conn {
		if (p > from) != up {
			continue
		}
		var d int64
		for c, cp := range caps {
			fw, tw := pw[from][c], pw[p][c]
			d += overOf(fw-int64(wv[c]), cp) + overOf(tw+int64(wv[c]), cp) - overOf(fw, cp) - overOf(tw, cp)
		}
		gain := w - own
		if bias.origin != nil {
			gain += bias.delta(v, from, p)
		}
		m := greedyMove{v: v, to: p, dOver: d, gain: gain}
		if best.to < 0 || d < best.dOver || (d == best.dOver && (gain > best.gain || (gain == best.gain && p < best.to))) {
			best = m
		}
	}
	return best, best.to >= 0 && (best.dOver < 0 || (best.dOver == 0 && best.gain > 0))
}

// kwayGreedy lays the table of (g, part) in the arena ks and runs greedy
// passes over it in place: one refinement on a caller-held arena.
func kwayGreedy(ctx context.Context, g *graph.Graph, part []int32, k int, caps []int64, passes int, pool *graph.Pool, bias moveBias, ks *kwayScratch) kwayStats {
	if g.NumVertices() == 0 || k <= 1 {
		return kwayStats{}
	}
	ks.begin(g, part, k)
	return ks.greedyPasses(ctx, g, part, k, caps, passes, pool, bias)
}

// watchGreedyMoves installs an onGreedyMove hook on ks that checks every
// committed move against scanGreedyMove on the live assignment, and keeps
// its own part weights in step. It returns the number of moves seen.
func watchGreedyMoves(t testing.TB, ks *kwayScratch, g *graph.Graph, part []int32, k int, caps []int64, bias moveBias) *int {
	pw := partWeights(g, part, k)
	seen := new(int)
	ks.onGreedyMove = func(m greedyMove, up bool) {
		*seen++
		want, ok := scanGreedyMove(g, part, pw, caps, bias, m.v, up)
		if !ok || m != want {
			t.Fatalf("vertex %d in part %d (up %v): committed %+v, an adjacency scan picks %+v (admissible %v)",
				m.v, part[m.v], up, m, want, ok)
		}
		for c, w := range g.WeightVec(m.v) {
			pw[part[m.v]][c] -= int64(w)
			pw[m.to][c] += int64(w)
		}
	}
	return seen
}

// TestGreedyMovesMatchScan: every move a greedy sub-pass commits is exactly
// the move an adjacency scan of the live assignment picks by the same rule,
// and it is admissible — the connectivity table and part weights give the
// greedy pass the right overage changes and biased gains. On the biased
// rows a third of the origins sit off the start parts, so both signs of the
// bias occur.
func TestGreedyMovesMatchScan(t *testing.T) {
	for _, in := range refineInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			g, k := in.g, in.k
			n := g.NumVertices()
			part := stripedAssignment(n, k)
			bias := testBias(part, in.bias)
			if in.bias {
				for v := range bias.origin {
					if v%3 == 0 {
						bias.origin[v] = (bias.origin[v] + 1) % int32(k)
					}
				}
			}
			caps := kwayCaps(g, k, 1.05)
			ks := getKwayScratch(n)
			defer putKwayScratch(ks)
			defer func() { ks.onGreedyMove = nil }()
			seen := watchGreedyMoves(t, ks, g, part, k, caps, bias)
			st := kwayGreedy(context.Background(), g, part, k, caps, 12, graph.NewPool(4), bias, ks)
			if *seen == 0 || *seen != st.moves || st.moves+st.stale != st.candidates {
				t.Fatalf("%d moves checked, %+v", *seen, st)
			}
			t.Logf("%+v", st)
		})
	}
}

// TestGreedyStopRule: greedy passes stop by balance. On refineInputs,
// biased and unbiased, from a striped start and from one that puts a third
// of the vertices in part 0, passes bounded by 12, 2 and 1 run and stop as
// stopRuleErr says, and every stop reason — balanced, stalled, pass_cap —
// occurs, so none of the three checks is vacuous.
func TestGreedyStopRule(t *testing.T) {
	stops := map[greedyStop]int{}
	for _, in := range refineInputs(t) {
		g, k := in.g, in.k
		n := g.NumVertices()
		skewed := stripedAssignment(n, k)
		for v := range skewed[:n/3] {
			skewed[v] = 0
		}
		for si, start := range [][]int32{stripedAssignment(n, k), skewed} {
			caps := kwayCaps(g, k, 1.05)
			startOver := totalOverage(partWeights(g, start, k), caps)
			for _, bound := range []int{12, 2, 1} {
				part := slices.Clone(start)
				ks := getKwayScratch(n)
				over := watchPassOverage(ks, k, caps)
				st := kwayGreedy(context.Background(), g, part, k, caps, bound, graph.NewPool(2), testBias(start, in.bias), ks)
				ks.onCommit = nil
				putKwayScratch(ks)
				if err := stopRuleErr(st, startOver, *over, bound); err != nil {
					t.Errorf("%s start %d: %v", in.name, si, err)
				}
				stops[st.stop]++
			}
		}
	}
	t.Logf("stops: %v", stops)
	for _, s := range []greedyStop{stopBalanced, stopStalled, stopPassCap} {
		if stops[s] == 0 {
			t.Errorf("no run stopped %v: %v", s, stops)
		}
	}
}

// signedGrid is an nx×ny grid with ncon vertex weights drawn from
// [vlo, 3] and edge weights from [elo, 9]. Negative lower bounds make the
// graphs on which the greedy scan prune must switch itself off.
func signedGrid(t *testing.T, nx, ny, ncon int, vlo, elo int32) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(nx*ny) + int64(vlo)*7 + int64(elo)))
	b := graph.NewBuilder(ncon)
	w := make([]int32, ncon)
	for i := 0; i < nx*ny; i++ {
		for c := range w {
			w[c] = vlo + rng.Int31n(4-vlo)
		}
		b.AddVertex(w...)
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			v := int32(i*ny + j)
			if j+1 < ny {
				b.AddEdge(v, v+1, elo+rng.Int31n(10-elo))
			}
			if i+1 < nx {
				b.AddEdge(v, v+int32(ny), elo+rng.Int31n(10-elo))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGreedyScanPruneMatchesFull: before every greedy sub-pass, the pruned
// scan's candidate list equals bestMove run over every vertex, so a vertex
// cannotMove passes over never had an admissible move. The inputs are
// refineInputs, a grid with zero-weight edges and a grid whose penalties go
// negative; the biased ones draw random origins and penalties. The prune
// must skip vertices on all of them. Grids with negative vertex weights,
// edge weights or both must find the prune switched off by begin, and on at
// least one of them cannotMove, asked anyway, must rule out a vertex that
// has an admissible move: the switch is needed.
func TestGreedyScanPruneMatchesFull(t *testing.T) {
	type pruneInput struct {
		refineInput
		negPen bool // penalties drawn from [-5, 9] instead of [0, 9]
	}
	var inputs []pruneInput
	for _, in := range refineInputs(t) {
		inputs = append(inputs, pruneInput{in, false})
	}
	inputs = append(inputs,
		pruneInput{refineInput{"grid-zero-weight-edges", gridWeightsFrom(t, 40, 40, 1, 0), 8, true}, false},
		pruneInput{refineInput{"grid-negative-penalties", weightedGrid(t, 40, 40, 2), 8, true}, true},
		pruneInput{refineInput{"grid-negative-vertex-weights", signedGrid(t, 40, 40, 2, -2, 1), 8, true}, false},
		pruneInput{refineInput{"grid-negative-edge-weights", signedGrid(t, 40, 40, 1, 1, -9), 8, false}, false},
		pruneInput{refineInput{"grid-negative-weights-and-penalties", signedGrid(t, 40, 40, 3, -2, -9), 8, true}, true},
	)
	misjudged := 0 // admissible vertices cannotMove rules out on the negative-weight grids
	for _, in := range inputs {
		negative := anyNegative(in.g.VWgt) || anyNegative(in.g.AdjWgt)
		t.Run(in.name, func(t *testing.T) {
			g, k := in.g, in.k
			n := g.NumVertices()
			part := stripedAssignment(n, k)
			var bias moveBias
			if in.bias {
				rng := rand.New(rand.NewSource(int64(n + k)))
				lo := 0
				if in.negPen {
					lo = -5
				}
				bias = moveBias{origin: slices.Clone(part), pen: make([]int64, n)}
				for v := range bias.origin {
					if rng.Intn(3) == 0 {
						bias.origin[v] = rng.Int31n(int32(k))
					}
					bias.pen[v] = int64(lo + rng.Intn(10-lo))
				}
			}
			caps := kwayCaps(g, k, 1.05)
			ks := getKwayScratch(n)
			defer putKwayScratch(ks)
			ks.begin(g, part, k)
			if ks.prune == negative {
				t.Fatalf("prune %v on a graph with negative weights %v", ks.prune, negative)
			}
			var st kwayStats
			skipped, candidates := 0, 0
			for pass := 0; pass < 6; pass++ {
				for _, up := range []bool{true, false} {
					ks.markOver(k, caps)
					got := ks.scanMoves(g, part, caps, bias, up, 0, n, nil)
					var want []greedyMove
					for v := int32(0); v < int32(n); v++ {
						m, ok := ks.bestMove(g, part, caps, bias, v, greedyDir(up))
						if ok {
							want = append(want, m)
						}
						if ks.rowN[v] > 0 && ks.cannotMove(g, part, bias, v) {
							if ks.prune {
								skipped++
							} else if ok {
								misjudged++
							}
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("pass %d up %v: pruned scan %d candidates %v, full scan %d %v", pass, up, len(got), got, len(want), want)
					}
					candidates += len(want)
					ks.greedySubPass(g, part, k, caps, nil, bias, up, &st)
				}
			}
			if !negative && skipped == 0 {
				t.Error("the prune skipped no vertex: nothing was compared")
			}
			if candidates == 0 {
				t.Error("no scan found a candidate: nothing was compared")
			}
			t.Logf("%+v, %d vertex scans skipped, %d candidates", st, skipped, candidates)
		})
	}
	if misjudged == 0 {
		t.Error("cannotMove ruled out no admissible vertex on the negative-weight grids: they do not show why the prune switches off")
	}
	t.Logf("%d admissible vertices cannotMove would have skipped on the negative-weight grids", misjudged)
}

// fuzzRefineInput decodes a small refinement problem: a graph of 1..40
// vertices with 1..3 constraints (zero weights allowed), edges of weight
// 0..5 (disconnected pieces and hubs occur as the bytes fall), k in
// 1..n+4, a start assignment, and a bias — none, origin without penalty,
// or random penalties including huge ones.
func fuzzRefineInput(data []byte) (g *graph.Graph, part []int32, k int, origin []int32, pen []int64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%40
	k = 1 + next()%(n+4)
	ncon := 1 + next()%3
	mode := next() % 3
	b := graph.NewBuilder(ncon)
	w := make([]int32, ncon)
	for v := 0; v < n; v++ {
		for c := range w {
			w[c] = int32(next() % 4)
		}
		b.AddVertex(w...)
	}
	part = make([]int32, n)
	for v := range part {
		part[v] = int32(next() % k)
	}
	if mode > 0 {
		origin = make([]int32, n)
		for v := range origin {
			origin[v] = int32(next() % k)
		}
	}
	if mode == 2 {
		pen = make([]int64, n)
		for v := range pen {
			if p := next(); p == 255 {
				pen[v] = 1 << 50
			} else {
				pen[v] = int64(p % 16)
			}
		}
	}
	for len(data) >= 3 {
		u, v, wt := int32(next()%n), int32(next()%n), int32(next()%6)
		if u != v {
			b.AddEdge(u, v, wt)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g, part, k, origin, pen
}

// watchPassOverage installs an onCommit hook on ks that records the total
// cap overage of the live part weights after every greedy pass (every
// second sub-pass). It returns the record.
func watchPassOverage(ks *kwayScratch, k int, caps []int64) *[]int64 {
	over, subPasses := new([]int64), 0
	ks.onCommit = func() {
		if subPasses++; subPasses%2 == 0 {
			*over = append(*over, ks.overage(k, caps))
		}
	}
	return over
}

// stopRuleErr checks that greedy passes bounded by bound, which started at
// total cap overage start and left overage over[i] after pass i, ran and
// stopped by the rule: every pass but the last left a positive overage
// below the one before it, and the last ended in the state st.stop names —
// no overage (balanced), an overage not below the one before it (stalled),
// or a still-falling overage at the bound (pass_cap).
func stopRuleErr(st kwayStats, start int64, over []int64, bound int) error {
	if st.passes != len(over) || st.passes < 1 {
		return fmt.Errorf("%d passes recorded, %d overages", st.passes, len(over))
	}
	prev := start
	for i, o := range over[:len(over)-1] {
		if o <= 0 || o >= prev {
			return fmt.Errorf("pass %d left overage %d after %d, yet the passes went on (overages %v from %d)", i, o, prev, over, start)
		}
		prev = o
	}
	last := over[len(over)-1]
	var ok bool
	switch st.stop {
	case stopBalanced:
		ok = last == 0
	case stopStalled:
		ok = last > 0 && last >= prev
	case stopPassCap:
		ok = last > 0 && last < prev && st.passes == bound
	}
	if !ok {
		return fmt.Errorf("stopped %v after %d of %d passes with overages %v from %d", st.stop, st.passes, bound, over, start)
	}
	return nil
}

// FuzzRefineKWay: on arbitrary small graphs, start assignments and biases,
// the Refiner never panics, keeps every label in [0, k), never raises the
// total cap overage above the start's, commits only admissible moves (each
// checked against an adjacency scan through the commit hook), stops by the
// balance rule (stopRuleErr) at pass bounds 8 and 2, the bound only cutting
// the same passes short, ends where passes that scan every vertex end, and
// returns the same bytes at Parallelism 1 and 4. Its climb, from the same
// start, keeps every label in [0, k), never ends with a (total cap overage,
// edge cut) lexicographically worse than the start's, and returns the same
// bytes at Parallelism 1 and 4.
func FuzzRefineKWay(f *testing.F) {
	f.Add([]byte{12, 5, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 1, 5, 6, 1, 6, 7, 1, 7, 8, 1, 8, 9, 1, 9, 10, 1, 10, 11, 1})
	// A hub joined to every vertex, two constraints, random penalties.
	hub := []byte{16, 3, 1, 2}
	for v := 0; v < 16; v++ {
		hub = append(hub, byte(v%4), byte(v%3))
	}
	for v := 0; v < 16; v++ {
		hub = append(hub, byte(v%2))
	}
	for v := 0; v < 16; v++ {
		hub = append(hub, byte(v%3))
	}
	for v := 0; v < 16; v++ {
		hub = append(hub, byte(v*17))
	}
	for v := 1; v < 16; v++ {
		hub = append(hub, 0, byte(v), byte(v%6))
	}
	f.Add(hub)
	// k above n, zero-weight edges, origin without penalty.
	f.Add([]byte{4, 9, 0, 1, 2, 0, 3, 1, 0, 1, 2, 3, 3, 2, 1, 0, 0, 1, 0, 1, 2, 0, 2, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, start, k, origin, pen := fuzzRefineInput(data)
		caps := kwayCaps(g, k, 1.05)
		var bias moveBias
		if origin != nil && pen != nil {
			bias = moveBias{origin: origin, pen: pen}
		}

		startOver := totalOverage(partWeights(g, start, k), caps)
		var part []int32
		var st kwayStats
		for _, bound := range []int{8, 2} {
			got := slices.Clone(start)
			ks := getKwayScratch(g.NumVertices())
			seen := watchGreedyMoves(t, ks, g, got, k, caps, bias)
			over := watchPassOverage(ks, k, caps)
			bst := kwayGreedy(context.Background(), g, got, k, caps, bound, nil, bias, ks)
			ks.onGreedyMove, ks.onCommit = nil, nil
			putKwayScratch(ks)
			if *seen != bst.moves {
				t.Fatalf("bound %d: hook saw %d moves, stats %+v", bound, *seen, bst)
			}
			if after := totalOverage(partWeights(g, got, k), caps); after > startOver {
				t.Fatalf("bound %d: total overage %d -> %d", bound, startOver, after)
			}
			if g.NumVertices() > 0 && k > 1 {
				if err := stopRuleErr(bst, startOver, *over, bound); err != nil {
					t.Fatalf("bound %d: %v", bound, err)
				}
			}
			if part == nil {
				part, st = got, bst
			} else if st.passes <= bound && !slices.Equal(got, part) {
				t.Fatalf("bound %d cut %d passes short and changed the result", bound, st.passes)
			}
		}

		// The visit set leaves out only vertices without an admissible
		// move: passes that scan every vertex with a row end the same.
		full := slices.Clone(start)
		ks := new(kwayScratch)
		ks.begin(g, full, k)
		ks.prune = false
		ks.greedyPasses(context.Background(), g, full, k, caps, 8, nil, bias)
		if !slices.Equal(full, part) {
			t.Fatalf("passes over every vertex end at %v, over the visit set at %v", full, part)
		}

		var ref []int32
		for _, par := range []int{1, 4} {
			got := slices.Clone(start)
			if err := refineFresh(context.Background(), g, got, k, RefineOptions{Parallelism: par}, origin, pen); err != nil {
				t.Fatal(err)
			}
			for v, p := range got {
				if p < 0 || int(p) >= k {
					t.Fatalf("parallelism %d: vertex %d in part %d, k = %d", par, v, p, k)
				}
			}
			if ref == nil {
				ref = got
				if !slices.Equal(got, part) {
					t.Fatalf("the refiner differs from its greedy passes")
				}
			} else if !slices.Equal(got, ref) {
				t.Fatalf("parallelism %d differs from 1", par)
			}
		}

		startCut := ComputeEdgeCut(g, start)
		var climbed []int32
		for _, par := range []int{1, 4} {
			got := slices.Clone(start)
			r, err := NewRefiner(g, got, k, RefineOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Begin(g, got); err != nil {
				t.Fatal(err)
			}
			r.Climb(context.Background(), 4)
			r.Close()
			for v, p := range got {
				if p < 0 || int(p) >= k {
					t.Fatalf("climb at parallelism %d: vertex %d in part %d, k = %d", par, v, p, k)
				}
			}
			over, cut := totalOverage(partWeights(g, got, k), caps), ComputeEdgeCut(g, got)
			if over > startOver || over == startOver && cut > startCut {
				t.Fatalf("climb at parallelism %d: (overage, cut) (%d, %d) -> (%d, %d)", par, startOver, startCut, over, cut)
			}
			if climbed == nil {
				climbed = got
			} else if !slices.Equal(got, climbed) {
				t.Fatalf("climb at parallelism %d differs from 1", par)
			}
		}
	})
}

// refineFresh refines part on g in one call with a refiner of its own:
// taken, its table laid, refined under the bias (origin, pen), closed.
func refineFresh(ctx context.Context, g *graph.Graph, part []int32, k int, opt RefineOptions, origin []int32, pen []int64) error {
	r, err := NewRefiner(g, part, k, opt)
	if err != nil {
		return err
	}
	defer r.Close()
	if err := r.Begin(g, part); err != nil {
		return err
	}
	return r.Refine(ctx, origin, pen, 0)
}

// visitSetErr compares the arena's visit set with the pruned scan's
// definition recomputed from scratch — every vertex with a row that
// cannotMove, after markOver on the live part weights, does not rule out
// under caps and bias — the over-cap lists the arena keeps with markOver's,
// and each part's boundary list with its vertices that have a row.
func visitSetErr(g *graph.Graph, part []int32, k int, caps []int64, bias moveBias, ks *kwayScratch) error {
	if !ks.tracking {
		return fmt.Errorf("no visit set kept")
	}
	keptAt, keptCons := slices.Clone(ks.overAt), slices.Clone(ks.overCons)
	ks.markOver(k, caps)
	for p := 0; p < k; p++ {
		kept, fresh := keptCons[keptAt[p]:keptAt[p+1]], ks.overCons[ks.overAt[p]:ks.overAt[p+1]]
		if !slices.Equal(kept, fresh) {
			return fmt.Errorf("part %d: over its cap on constraints %v as kept, %v by its part weights", p, kept, fresh)
		}
	}
	for v := int32(0); v < int32(len(part)); v++ {
		want := ks.rowN[v] > 0 && !ks.cannotMove(g, part, bias, v)
		if got := ks.visit[v/64]&(1<<(v%64)) != 0; got != want {
			return fmt.Errorf("vertex %d in part %d (row of %d, net %d): in the set %v, the prune says %v", v, part[v], ks.rowN[v], ks.net[v], got, want)
		}
	}
	listed := 0
	for p := int32(0); p < int32(k); p++ {
		prev := int32(-1)
		for v := ks.bhead[p]; v >= 0; v = ks.bnext[v] {
			if part[v] != p || ks.rowN[v] == 0 || ks.bprev[v] != prev {
				return fmt.Errorf("part %d's boundary list holds vertex %d of part %d with a row of %d (back link %d, want %d)", p, v, part[v], ks.rowN[v], ks.bprev[v], prev)
			}
			prev = v
			listed++
		}
	}
	if rows := ks.boundaryCount(); listed != rows {
		return fmt.Errorf("%d vertices listed, %d have a row", listed, rows)
	}
	return nil
}

// TestGreedyVisitSetMatchesPrune: the visit set a refiner keeps is exactly
// the set of vertices the pruned scan does not rule out — once Refine has
// built it on the table Begin laid, before and after every commit of every
// sub-pass, and after a bias change that rewrites the origins in place, so
// that only Refine's rebuild can notice it. The inputs are refineInputs
// (k = 2100 among them), a grid with zero-weight edges and a grid whose
// penalties go negative, each with random origins and penalties. The
// sub-passes must visit fewer vertices than have a row, and the visited
// counter must be the set's size at every sub-pass start. On grids with
// negative weights there must be no set, and every sub-pass must visit
// every vertex with a row.
func TestGreedyVisitSetMatchesPrune(t *testing.T) {
	type setInput struct {
		refineInput
		negPen bool // penalties drawn from [-5, 9] instead of [0, 9]
	}
	var inputs []setInput
	for _, in := range refineInputs(t) {
		inputs = append(inputs, setInput{in, false})
	}
	inputs = append(inputs,
		setInput{refineInput{"grid-zero-weight-edges", gridWeightsFrom(t, 40, 40, 1, 0), 8, true}, false},
		setInput{refineInput{"grid-negative-penalties", weightedGrid(t, 40, 40, 2), 8, true}, true},
		setInput{refineInput{"grid-negative-vertex-weights", signedGrid(t, 40, 40, 2, -2, 1), 8, true}, false},
		setInput{refineInput{"grid-negative-edge-weights", signedGrid(t, 40, 40, 1, 1, -9), 8, false}, false},
	)
	for _, in := range inputs {
		negative := anyNegative(in.g.VWgt) || anyNegative(in.g.AdjWgt)
		t.Run(in.name, func(t *testing.T) {
			g, k := in.g, in.k
			n := g.NumVertices()
			part := stripedAssignment(n, k)
			var origin []int32
			var pen []int64
			if in.bias {
				rng := rand.New(rand.NewSource(int64(n + k)))
				lo := 0
				if in.negPen {
					lo = -5
				}
				origin, pen = slices.Clone(part), make([]int64, n)
				for v := range origin {
					if rng.Intn(3) == 0 {
						origin[v] = rng.Int31n(int32(k))
					}
					pen[v] = int64(lo + rng.Intn(10-lo))
				}
			}
			r, err := NewRefiner(g, part, k, RefineOptions{Parallelism: 4, Passes: 6})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			ks := r.ks
			if err := r.Begin(g, part); err != nil {
				t.Fatal(err)
			}
			caps := r.Caps()
			var bias moveBias // the bias of the Refine under way
			checked := 0
			check := func(when string) {
				checked++
				if negative {
					if ks.tracking {
						t.Fatalf("%s: a visit set on a graph with negative weights", when)
					}
					return
				}
				if err := visitSetErr(g, part, k, caps, bias, ks); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			// What a sub-pass starting now should look at — the vertices
			// the prune keeps, or every vertex with a row on a graph with
			// negative weights — and how many vertices have a row.
			var starts, rows []int
			atStart := func() {
				ks.markOver(k, caps)
				keep, b := 0, 0
				for v := int32(0); v < int32(n); v++ {
					if ks.rowN[v] > 0 {
						b++
						if negative || !ks.cannotMove(g, part, bias, v) {
							keep++
						}
					}
				}
				starts, rows = append(starts, keep), append(rows, b)
			}
			if ks.tracking {
				t.Fatal("Begin built a visit set: the set is Refine's, built for its bias")
			}
			ks.onGreedyMove = func(greedyMove, bool) { check("before a commit") }
			ks.onCommit = func() {
				check("after a sub-pass")
				atStart()
			}
			defer func() { ks.onGreedyMove, ks.onCommit = nil, nil }()
			for round := 0; round < 2; round++ {
				if round == 1 {
					// New origins, a third of them off the refined parts,
					// and new penalties — on a biased input in the same
					// arrays, which only a rebuild of the set on every
					// Refine notices.
					if origin == nil {
						origin, pen = make([]int32, n), make([]int64, n)
					}
					rng := rand.New(rand.NewSource(int64(n)))
					copy(origin, part)
					for v := range origin {
						if rng.Intn(3) == 0 {
							origin[v] = rng.Int31n(int32(k))
						}
						pen[v] = int64(1 + rng.Intn(9))
					}
				}
				bias = moveBias{origin: origin, pen: pen}
				starts, rows = starts[:0], rows[:0]
				atStart()
				rec := obs.NewRecorder()
				if err := r.Refine(obs.WithRecorder(context.Background(), rec), origin, pen, 0); err != nil {
					t.Fatal(err)
				}
				check("after a Refine")
				sp := rec.Snapshot()[0]
				passes, _ := intAttr(sp, "passes")
				visited, _ := intAttr(sp, "visited")
				moves, _ := intAttr(sp, "moves")
				subPasses := int(2 * passes)
				var want, boundary int
				for i := 0; i < subPasses; i++ {
					want += starts[i]
					boundary += rows[i]
				}
				if int(visited) != want {
					t.Fatalf("round %d: %d vertices visited, the prune keeps %d over %d sub-passes", round, visited, want, subPasses)
				}
				if moves == 0 || (!negative && visited >= int64(boundary)) {
					t.Fatalf("round %d: %d moves, %d of %d vertices with a row visited: nothing was compared", round, moves, visited, boundary)
				}
				t.Logf("round %d: %d passes, %d moves, %d of %d vertices with a row visited", round, passes, moves, visited, boundary)
			}
			if checked == 0 {
				t.Fatal("nothing was compared")
			}
		})
	}
}

// warmLevel is one level of a warm-start hierarchy: its graph, the map of
// its vertices onto the next coarser level's (nil on the coarsest), and the
// origins and penalties projected onto it.
type warmLevel struct {
	g      *graph.Graph
	cmap   []int32
	origin []int32
	pen    []int64
}

// warmHierarchy coarsens g by matching each vertex with its first
// unmatched neighbour of the same origin part, as the warm path's
// hierarchy does, until a level has at most 600 vertices or shrinks by
// less than a tenth. It returns the levels finest first.
func warmHierarchy(g *graph.Graph, origin []int32, pen []int64) []warmLevel {
	levels := []warmLevel{{g: g, origin: origin, pen: pen}}
	for {
		cur := &levels[len(levels)-1]
		n := cur.g.NumVertices()
		if n <= 600 {
			return levels
		}
		cmap := make([]int32, n)
		for v := range cmap {
			cmap[v] = -1
		}
		nc := int32(0)
		for v := int32(0); v < int32(n); v++ {
			if cmap[v] >= 0 {
				continue
			}
			cmap[v] = nc
			for _, u := range cur.g.Adjncy[cur.g.Xadj[v]:cur.g.Xadj[v+1]] {
				if cmap[u] < 0 && cur.origin[u] == cur.origin[v] {
					cmap[u] = nc
					break
				}
			}
			nc++
		}
		if int(nc) > n*9/10 {
			return levels
		}
		next := warmLevel{g: cur.g.ContractP(cmap, int(nc), nil), origin: make([]int32, nc)}
		if cur.pen != nil {
			next.pen = make([]int64, nc)
		}
		for v, c := range cmap {
			next.origin[c] = cur.origin[v]
			if cur.pen != nil {
				next.pen[c] += cur.pen[v]
			}
		}
		cur.cmap = cmap
		levels = append(levels, next)
	}
}

// refineHierarchy refines the projected origins of levels coarse to fine
// with refine and returns the finest level's assignment.
func refineHierarchy(levels []warmLevel, refine func(lv warmLevel, part []int32)) []int32 {
	part := slices.Clone(levels[len(levels)-1].origin)
	for li := len(levels) - 1; li >= 0; li-- {
		refine(levels[li], part)
		if li > 0 {
			fine := levels[li-1]
			next := make([]int32, fine.g.NumVertices())
			for v := range next {
				next[v] = part[fine.cmap[v]]
			}
			part = next
		}
	}
	return part
}

// TestRefinerReuseMatchesFresh: one refiner taken for the finest graph and
// carried over a coarse-to-fine warm-start hierarchy, then through moves
// made with Move, then through a polish on the live table, leaves exactly
// the assignment that a fresh arena per refinement and a table laid anew for
// the polish give — and its table and part weights equal a fresh scan's
// after the hierarchy, after the moves and after the polish.
func TestRefinerReuseMatchesFresh(t *testing.T) {
	ctx := context.Background()
	for _, in := range refineInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			g, k := in.g, in.k
			n := g.NumVertices()
			old := stripedAssignment(n, k)
			var pen []int64
			if in.bias {
				pen = testBias(old, true).pen
			}
			levels := warmHierarchy(g, old, pen)
			if len(levels) < 3 {
				t.Fatalf("a hierarchy of %d levels", len(levels))
			}
			opt := RefineOptions{Parallelism: 2}
			pool := graph.NewPool(2)
			biasOf := func(origin []int32, pen []int64) moveBias {
				if pen == nil {
					return moveBias{}
				}
				return moveBias{origin: origin, pen: pen}
			}

			r, err := NewRefiner(g, old, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			tableErr := func(when string, part []int32) {
				t.Helper()
				if err := connTableErr(g, part, r.ks); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if got, want := r.PartWeights(), slices.Concat(partWeights(g, part, k)...); !slices.Equal(got, want) {
					t.Fatalf("%s: part weights %v, a fresh count %v", when, got, want)
				}
			}
			// The finest level is refined in the returned assignment, which
			// the refiner's table describes from then on.
			got := refineHierarchy(levels, func(lv warmLevel, part []int32) {
				if err := r.Begin(lv.g, part); err != nil {
					t.Fatal(err)
				}
				if err := r.Refine(ctx, lv.origin, lv.pen, 0); err != nil {
					t.Fatal(err)
				}
			})
			want := refineHierarchy(levels, func(lv warmLevel, part []int32) {
				caps := kwayCaps(lv.g, k, DefaultImbalanceTol)
				kwayGreedy(ctx, lv.g, part, k, caps, DefaultRefinePasses, pool, biasOf(lv.origin, lv.pen), new(kwayScratch))
			})
			if d := diffVertices(got, want); d > 0 {
				t.Fatalf("after the hierarchy: the reused refiner differs from fresh arenas at %d vertices", d)
			}
			tableErr("after the hierarchy", got)

			// Moves in the manner of a diffusion: every seventh vertex with
			// a neighbour in another part joins that part.
			home := slices.Clone(got)
			moved := 0
			for v := int32(0); v < int32(n); v += 7 {
				for _, u := range g.Adjncy[g.Xadj[v]:g.Xadj[v+1]] {
					if to := got[u]; to != got[v] {
						r.Move(v, to)
						want[v] = to
						moved++
						break
					}
				}
			}
			if moved == 0 || !slices.Equal(got, want) {
				t.Fatalf("%d moves made", moved)
			}
			tableErr("after the moves", got)

			before := r.TableBuilds()
			if err := r.Refine(ctx, home, pen, 0); err != nil {
				t.Fatal(err)
			}
			st := kwayGreedy(ctx, g, want, k, kwayCaps(g, k, DefaultImbalanceTol), DefaultRefinePasses, pool, biasOf(home, pen), new(kwayScratch))
			if st.moves == 0 {
				t.Fatal("the polish moved nothing: nothing was compared")
			}
			if d := diffVertices(got, want); d > 0 {
				t.Fatalf("after the polish: the live table's polish differs from a fresh one at %d vertices", d)
			}
			if r.TableBuilds() != before || before != len(levels) {
				t.Fatalf("%d tables laid over %d levels, %d after the polish", before, len(levels), r.TableBuilds())
			}
			tableErr("after the polish", got)
			t.Logf("%d levels, %d moves, polish %+v", len(levels), moved, st)
		})
	}
}

func diffVertices(a, b []int32) int {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// TestRefinerResultMatchesNewResult: the refiner's Result and MaxImbalance,
// read off its live part weights and rows, equal NewResult and
// MaxImbalanceOf of the live assignment after Begin, after Moves that
// leave rows behind and after a Refine — on refineInputs and on grids with
// negative vertex and edge weights, whose cut terms can cancel.
func TestRefinerResultMatchesNewResult(t *testing.T) {
	inputs := refineInputs(t)
	inputs = append(inputs,
		refineInput{"grid-negative-weights", signedGrid(t, 30, 30, 2, -2, -3), 6, true},
		refineInput{"grid-zero-edges", signedGrid(t, 30, 30, 1, 0, 0), 5, false})
	for _, in := range inputs {
		g, k := in.g, in.k
		n := g.NumVertices()
		part := stripedAssignment(n, k)
		bias := testBias(part, in.bias)
		r, err := NewRefiner(g, part, k, RefineOptions{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			got, want := r.Result(), NewResult(g, part, k)
			if got.EdgeCut != want.EdgeCut || !slices.EqualFunc(got.PartWeights, want.PartWeights, slices.Equal) || &got.Part[0] != &part[0] {
				t.Errorf("%s after %s: Result cut %d weights %v, NewResult cut %d weights %v", in.name, stage, got.EdgeCut, got.PartWeights, want.EdgeCut, want.PartWeights)
			}
			if got, want := r.MaxImbalance(), MaxImbalanceOf(g, part, k); got != want {
				t.Errorf("%s after %s: MaxImbalance %v, MaxImbalanceOf %v", in.name, stage, got, want)
			}
		}
		if err := r.Begin(g, part); err != nil {
			t.Fatal(err)
		}
		check("Begin")
		for v := int32(0); v < int32(n); v += 7 {
			r.Move(v, (part[v]+1)%int32(k))
		}
		check("Moves")
		if err := r.Refine(context.Background(), bias.origin, bias.pen, 0); err != nil {
			t.Fatal(err)
		}
		check("Refine")
		r.Close()
	}
}
