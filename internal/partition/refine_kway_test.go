package partition

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"tempart/internal/graph"
)

// totalOverage sums the cap overshoot of every part and constraint.
func totalOverage(pw [][]int64, caps []int64) int64 {
	var over int64
	for _, w := range pw {
		over += overage(w, caps)
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
			caps := KWayCaps(g, k, 1.05)
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
			caps := KWayCaps(g, k, 1.05)
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
						m, ok := ks.bestMove(g, part, caps, bias, v, up)
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
func fuzzRefineInput(data []byte) (*graph.Graph, []int32, int, RefineOptions) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%40
	k := 1 + next()%(n+4)
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
	part := make([]int32, n)
	for v := range part {
		part[v] = int32(next() % k)
	}
	var opt RefineOptions
	if mode > 0 {
		opt.Origin = make([]int32, n)
		for v := range opt.Origin {
			opt.Origin[v] = int32(next() % k)
		}
	}
	if mode == 2 {
		opt.MovePenalty = make([]int64, n)
		for v := range opt.MovePenalty {
			if p := next(); p == 255 {
				opt.MovePenalty[v] = 1 << 50
			} else {
				opt.MovePenalty[v] = int64(p % 16)
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
	return g, part, k, opt
}

// FuzzRefineKWay: on arbitrary small graphs, start assignments and biases,
// RefineKWay never panics, keeps every label in [0, k), never raises the
// total cap overage above the start's, commits only admissible moves (each
// checked against an adjacency scan through the commit hook), and returns
// the same bytes at Parallelism 1 and 4.
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
		g, start, k, opt := fuzzRefineInput(data)
		caps := KWayCaps(g, k, 1.05)
		var bias moveBias
		if opt.Origin != nil && opt.MovePenalty != nil {
			bias = moveBias{origin: opt.Origin, pen: opt.MovePenalty}
		}

		part := slices.Clone(start)
		ks := getKwayScratch(g.NumVertices())
		seen := watchGreedyMoves(t, ks, g, part, k, caps, bias)
		st := kwayGreedy(context.Background(), g, part, k, caps, 8, nil, bias, ks)
		ks.onGreedyMove = nil
		putKwayScratch(ks)
		if *seen != st.moves {
			t.Fatalf("hook saw %d moves, stats %+v", *seen, st)
		}
		if after, before := totalOverage(partWeights(g, part, k), caps), totalOverage(partWeights(g, start, k), caps); after > before {
			t.Fatalf("total overage %d -> %d", before, after)
		}

		var ref []int32
		for _, par := range []int{1, 4} {
			got := slices.Clone(start)
			opt.Parallelism = par
			if err := RefineKWay(context.Background(), g, got, k, opt); err != nil {
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
					t.Fatalf("RefineKWay differs from its greedy passes")
				}
			} else if !slices.Equal(got, ref) {
				t.Fatalf("parallelism %d differs from 1", par)
			}
		}
	})
}
