package partition

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tempart/internal/graph"
	"tempart/internal/mesh"
)

// weightedGrid is an nx×ny grid with pseudo-random edge weights 1..9 and ncon
// vertex weights 1..3 — the shape coarse levels have (heavy, uneven edges),
// which the unit-weight dual graphs do not.
func weightedGrid(t *testing.T, nx, ny, ncon int) *graph.Graph {
	return gridWeightsFrom(t, nx, ny, ncon, 1)
}

// gridWeightsFrom is weightedGrid with edge weights minW..9.
func gridWeightsFrom(t *testing.T, nx, ny, ncon int, minW int32) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(nx*ny + ncon)))
	b := graph.NewBuilder(ncon)
	w := make([]int32, ncon)
	for i := 0; i < nx*ny; i++ {
		for c := range w {
			w[c] = 1 + rng.Int31n(3)
		}
		b.AddVertex(w...)
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			v := int32(i*ny + j)
			if j+1 < ny {
				b.AddEdge(v, v+1, minW+rng.Int31n(10-minW))
			}
			if i+1 < nx {
				b.AddEdge(v, v+int32(ny), minW+rng.Int31n(10-minW))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refineInput is one graph, part count and bias setting the once-only
// properties are checked on.
type refineInput struct {
	name string
	g    *graph.Graph
	k    int
	bias bool
}

// refineInputs covers one and four constraints, unit and weighted edges,
// biased and unbiased, and a k whose pair tables are maps. The pairwise
// engine has no bias; its tests take the unbiased rows (pairInputs).
func refineInputs(t *testing.T) []refineInput {
	cyl := mesh.Cylinder(0.002).DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	return []refineInput{
		{"cylinder-ncon4", cyl, 24, false},
		{"cylinder-ncon4-biased", cyl, 24, true},
		{"grid-ncon1", weightedGrid(t, 60, 60, 1), 16, false},
		{"grid-ncon1-biased", weightedGrid(t, 60, 60, 1), 16, true},
		{"grid-ncon4-biased", weightedGrid(t, 48, 48, 4), 12, true},
		// k*k beyond maxDensePairs: the pair index and the idle records live
		// in maps.
		{"grid-map-fallback", weightedGrid(t, 110, 110, 1), 2100, false},
	}
}

// pairInputs is the unbiased part of refineInputs.
func pairInputs(t *testing.T) []refineInput {
	var out []refineInput
	for _, in := range refineInputs(t) {
		if !in.bias {
			out = append(out, in)
		}
	}
	return out
}

func testBias(part []int32, on bool) moveBias {
	if !on {
		return moveBias{}
	}
	pen := make([]int64, len(part))
	for i := range pen {
		pen[i] = int64(i%3) + 1
	}
	return moveBias{origin: append([]int32(nil), part...), pen: pen}
}

// TestIdlePairSkipMatchesExhaustive: skipping a pair must be exactly "the run
// would have returned no move". Every skipped slot is re-run on the spot and
// must come back empty, and the refined assignment must equal that of an
// exhaustive refinement whose idle records are wiped after every pass. The inputs must also reach the case that makes the bookkeeping
// subtle: a pair that runs idle after an earlier round of the same pass
// changed one of its parts (its list is stale, so the idle result says
// nothing about the next pass).
func TestIdlePairSkipMatchesExhaustive(t *testing.T) {
	const passes = 12
	staleIdleAnywhere := 0
	for _, in := range pairInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			g, k := in.g, in.k
			n := g.NumVertices()
			if densePairs(k) == (in.name == "grid-map-fallback") {
				t.Fatalf("k = %d: dense = %v", k, densePairs(k))
			}
			initial := stripedAssignment(n, k)
			caps := KWayCaps(g, k, 1.05)

			// Exhaustive reference: no idle record survives a pass.
			want := append([]int32(nil), initial...)
			ref := getKwayScratch(n)
			ref.begin(g, want, k)
			for pass := 0; pass < passes; pass++ {
				var st kwayStats
				kwayPass(g, want, k, caps, ref, nil, &st)
				if st.pairsSkipped != 0 {
					t.Fatalf("reference pass %d skipped %d pairs", pass, st.pairsSkipped)
				}
				clear(ref.idleAt)
				clear(ref.idleMap)
				if st.moves == 0 {
					break
				}
			}
			putKwayScratch(ref)

			got := append([]int32(nil), initial...)
			ks := getKwayScratch(n)
			defer putKwayScratch(ks)
			var skipped map[int32]bool
			probe := new(pairScratch)
			ks.onSkip = func(pi int32) {
				skipped[pi] = true
				if mv := probe.run(ks, &ks.pairs[pi], ks.lists[pi], nil); len(mv) != 0 {
					pr := ks.pairs[pi]
					t.Errorf("pair (%d,%d) was skipped but has %d moves to make", pr.a, pr.b, len(mv))
				}
			}
			defer func() { ks.onSkip = nil }()
			var total kwayStats
			staleIdle := 0
			ks.begin(g, got, k)
			for pass := 0; pass < passes; pass++ {
				skipped = map[int32]bool{}
				before := total.moves
				kwayPass(g, got, k, caps, ks, nil, &total)
				// Pairs that ran idle in this pass although a pair of an
				// earlier color had already moved vertices of one of their parts.
				for pi := range ks.pairs {
					p := &ks.pairs[pi]
					if skipped[int32(pi)] || ks.idleStamp(p, k) != ks.stamp {
						continue
					}
					for qi := range ks.pairs {
						q := &ks.pairs[qi]
						shares := q.a == p.a || q.a == p.b || q.b == p.a || q.b == p.b
						if qi != pi && shares && q.color < p.color && !skipped[int32(qi)] && ks.idleStamp(q, k) != ks.stamp {
							staleIdle++
							break
						}
					}
				}
				if total.moves == before {
					break
				}
			}
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("vertex %d: part %d with skipping, %d exhaustively", v, got[v], want[v])
				}
			}
			if total.pairsSkipped == 0 {
				t.Errorf("no pair was ever skipped (%+v): the input does not exercise the skip", total)
			}
			if total.pairsRun+total.pairsSkipped == 0 || total.pairsIdle > total.pairsRun {
				t.Errorf("implausible counters %+v", total)
			}
			t.Logf("%+v, %d idle runs on a stale list", total, staleIdle)
			staleIdleAnywhere += staleIdle
		})
	}
	if staleIdleAnywhere == 0 {
		t.Error("no input produced an idle run on a stale list — the stale-list case is untested")
	}
}

// scanConnRow appends to row v's connectivity row by adjacency scan, entries
// in first-seen order, and returns it with v's edge weight into its own part.
func scanConnRow(g *graph.Graph, part []int32, v int32, row []connEntry) ([]connEntry, int64) {
	var own int64
	for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
		p, w := part[g.Adjncy[i]], int64(g.AdjWgt[i])
		if p == part[v] {
			own += w
			continue
		}
		j := slices.IndexFunc(row, func(e connEntry) bool { return e.p == p })
		if j < 0 {
			j = len(row)
			row = append(row, connEntry{p: p})
		}
		row[j].n++
		row[j].w += w
	}
	return row, own
}

// connTableErr compares the arena's connectivity table against a fresh
// adjacency scan of (g, part): every vertex's row (part, weight, edge
// count) and net weight (row weight minus own weight), no row entry for the
// own part or without edges, and every row within its capacity and the
// arena.
func connTableErr(g *graph.Graph, part []int32, ks *kwayScratch) error {
	n := g.NumVertices()
	var want []connEntry
	for v := int32(0); v < int32(n); v++ {
		var own int64
		want, own = scanConnRow(g, part, v, want[:0])
		var got []connEntry
		if at := ks.rowAt[v]; at >= 0 {
			if ks.rowN[v] > ks.rowCap[v] || int(at+ks.rowCap[v]) > len(ks.ents) {
				return fmt.Errorf("vertex %d: %d entries in a row of %d at %d, arena %d", v, ks.rowN[v], ks.rowCap[v], at, len(ks.ents))
			}
			got = ks.ents[at : at+ks.rowN[v]]
		} else if ks.rowN[v] != 0 {
			return fmt.Errorf("vertex %d: %d entries without a row", v, ks.rowN[v])
		}
		if len(got) != len(want) {
			return fmt.Errorf("vertex %d in part %d: row %v, scan %v", v, part[v], got, want)
		}
		var ext int64
		for _, e := range want {
			if !slices.Contains(got, e) {
				return fmt.Errorf("vertex %d in part %d: row %v, scan %v", v, part[v], got, want)
			}
			ext += e.w
		}
		if ks.net[v] != ext-own {
			return fmt.Errorf("vertex %d: net weight %d, scan %d", v, ks.net[v], ext-own)
		}
	}
	return nil
}

// TestConnTableMatchesScan: the connectivity table the commits patch is
// exact — after begin, after every commit round of the pairwise engine and
// after every greedy sub-pass it equals a fresh adjacency scan
// (connTableErr), on every refineInputs graph and on one with zero-weight
// edges. The pairwise engine runs on the unbiased rows, the greedy passes
// on every row with its bias. Both share a four-worker pool, so under -race
// the concurrent pair runs' and candidate scans' reads of the table are
// checked against the commits' writes.
func TestConnTableMatchesScan(t *testing.T) {
	pool := graph.NewPool(4)
	// Edge weights 0..9: some vertices touch another part through
	// zero-weight edges only, which the sweep and the scans must still list.
	inputs := append(refineInputs(t), refineInput{"grid-zero-weight-edges", gridWeightsFrom(t, 40, 40, 1, 0), 8, true})
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			g, k := in.g, in.k
			n := g.NumVertices()
			caps := KWayCaps(g, k, 1.05)
			ks := getKwayScratch(n)
			defer putKwayScratch(ks)
			defer func() { ks.onCommit = nil }()
			check := func(engine string, refine func(part []int32) kwayStats) {
				part := stripedAssignment(n, k)
				ks.begin(g, part, k)
				if err := connTableErr(g, part, ks); err != nil {
					t.Fatalf("%s: after begin: %v", engine, err)
				}
				rounds, weightless := 0, 0 // entries whose edges all weigh 0
				ks.onCommit = func() {
					rounds++
					if err := connTableErr(g, part, ks); err != nil {
						t.Fatalf("%s: after commit round %d: %v", engine, rounds, err)
					}
					for v, at := range ks.rowAt {
						if at < 0 {
							continue
						}
						for _, e := range ks.ents[at : at+ks.rowN[v]] {
							if e.w == 0 {
								weightless++
							}
						}
					}
				}
				st := refine(part)
				if st.moves == 0 {
					t.Fatalf("%s: no move committed (%+v): the table was never patched", engine, st)
				}
				if in.name == "grid-zero-weight-edges" && weightless == 0 {
					t.Errorf("%s: no row entry carried only zero-weight edges: count-based removal is untested", engine)
				}
				t.Logf("%s: %+v, %d commit rounds checked, %d weightless entries seen", engine, st, rounds, weightless)
			}
			if !in.bias {
				check("pairwise", func(part []int32) kwayStats {
					return kwayRefineWith(context.Background(), g, part, k, caps, 12, pool, ks)
				})
			}
			check("greedy", func(part []int32) kwayStats {
				return kwayGreedy(context.Background(), g, part, k, caps, 12, pool, testBias(part, in.bias), ks)
			})
		})
	}
}

// TestBeginLaysRowsInScanOrder: begin's one-sweep table is the table of a
// fresh scan with every row in first-seen order, laid back to back at
// exactly its size, whatever capacity the arena brings: none (a fresh
// arena, counted and laid by the fallback), too little for the rows (the
// sweep fills up part way), enough for the rows but not the 1/8 headroom,
// and enough for both. Only an arena short of rows plus headroom is
// replaced, and then by one of exactly that size.
func TestBeginLaysRowsInScanOrder(t *testing.T) {
	for _, in := range append(refineInputs(t), refineInput{"grid-zero-weight-edges", gridWeightsFrom(t, 40, 40, 1, 0), 8, false}) {
		t.Run(in.name, func(t *testing.T) {
			g, k := in.g, in.k
			n := g.NumVertices()
			part := stripedAssignment(n, k)
			want := make([][]connEntry, n)
			rows := 0
			for v := int32(0); v < int32(n); v++ {
				want[v], _ = scanConnRow(g, part, v, nil)
				rows += len(want[v])
			}
			need := rows + rows/8
			for _, capacity := range []int{0, rows / 2, rows, need} {
				ks := new(kwayScratch)
				ks.ents = make([]connEntry, 0, capacity)
				ks.begin(g, part, k)
				if err := connTableErr(g, part, ks); err != nil {
					t.Fatalf("capacity %d: %v", capacity, err)
				}
				next := int32(0)
				for v := int32(0); v < int32(n); v++ {
					if len(want[v]) == 0 {
						if ks.rowAt[v] != -1 || ks.rowN[v] != 0 {
							t.Fatalf("capacity %d: vertex %d has a row at %d of %d entries, want none", capacity, v, ks.rowAt[v], ks.rowN[v])
						}
						continue
					}
					if ks.rowAt[v] != next || ks.rowN[v] != ks.rowCap[v] {
						t.Fatalf("capacity %d: vertex %d row at %d with %d of %d entries, want at %d at exact size",
							capacity, v, ks.rowAt[v], ks.rowN[v], ks.rowCap[v], next)
					}
					if got := ks.ents[ks.rowAt[v] : ks.rowAt[v]+ks.rowN[v]]; !slices.Equal(got, want[v]) {
						t.Fatalf("capacity %d: vertex %d row %v, first-seen scan %v", capacity, v, got, want[v])
					}
					next += ks.rowN[v]
				}
				// An arena short of rows plus headroom is replaced by one of
				// exactly that size; any other is kept.
				if wantCap := max(capacity, need); len(ks.ents) != rows || cap(ks.ents) != wantCap {
					t.Fatalf("capacity %d: arena %d entries of %d, want %d of %d", capacity, len(ks.ents), cap(ks.ents), rows, wantCap)
				}
			}
		})
	}
}

// scanRegister is registration by adjacency scan: v's gain toward the pair's
// other part, its side and its weighted degree into a ∪ b against the run's
// effective state, where locally moved vertices count on their moved side.
func scanRegister(ps *pairScratch, v int32) (gain int64, side int8, deg int64) {
	g := ps.g
	var ca, cb int64
	for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
		u := g.Adjncy[i]
		pu := ps.part[u]
		if pu != ps.a && pu != ps.b {
			continue
		}
		su := int8(0)
		if pu == ps.b {
			su = 1
		}
		if lu := ps.localID[u]; lu >= 0 {
			su = ps.side[lu]
		}
		if su == 0 {
			ca += int64(g.AdjWgt[i])
		} else {
			cb += int64(g.AdjWgt[i])
		}
	}
	gain = cb - ca
	if ps.part[v] == ps.b {
		side, gain = 1, ca-cb
	}
	return gain, side, ca + cb
}

// TestSweepGainsMatchRegister: every vertex a pair run registers — the
// initial working set built from the sweep's list, on fresh and stale pairs,
// and every vertex that joins after a move — gets from the connectivity
// table exactly the gain and side an adjacency scan of the run's state
// computes, and the run's bucket key bound is the scan's largest weighted
// degree into the pair over the initial working set.
func TestSweepGainsMatchRegister(t *testing.T) {
	var stale, joined int
	for _, in := range pairInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			g, k := in.g, in.k
			n := g.NumVertices()
			part := stripedAssignment(n, k)
			caps := KWayCaps(g, k, 1.05)
			ks := getKwayScratch(n)
			defer putKwayScratch(ks)
			checked := 0
			ks.onRegister = func(ps *pairScratch, l int32) {
				checked++
				v := ps.verts[l]
				gain, side, _ := scanRegister(ps, v)
				if ps.gain[l] != gain || ps.side[l] != side || ps.locked[l] {
					t.Fatalf("pair (%d,%d) vertex %d after %d moves: table gives gain %d side %d locked %v, scan gain %d side %d",
						ps.a, ps.b, v, len(ps.moves), ps.gain[l], ps.side[l], ps.locked[l], gain, side)
				}
				if len(ps.moves) > 0 {
					joined++
					return
				}
				if ps.ks.ver[ps.a] == ps.ks.stamp || ps.ks.ver[ps.b] == ps.ks.stamp {
					stale++
				}
				if l != 0 {
					return
				}
				maxDeg := int64(1)
				for _, u := range ps.verts {
					_, _, deg := scanRegister(ps, u)
					maxDeg = max(maxDeg, deg)
				}
				if ps.maxDeg != maxDeg {
					t.Fatalf("pair (%d,%d): key bound %d from the table, %d from the scan", ps.a, ps.b, ps.maxDeg, maxDeg)
				}
			}
			defer func() { ks.onRegister = nil }()
			st := kwayRefineWith(context.Background(), g, part, k, caps, 12, nil, ks)
			if checked == 0 || st.moves == 0 {
				t.Fatalf("%d registrations checked, %+v", checked, st)
			}
		})
	}
	if stale == 0 || joined == 0 {
		t.Errorf("%d registrations on stale pairs, %d after a move: a case is untested", stale, joined)
	}
}

// TestPairArenasLiveWithKwayArena: pair arenas belong to the k-way arena — at
// most one per concurrent runner, reused by the next call even across a GC
// (the sync.Pool they used to sit in is emptied by one), and handed back
// without references to the caller's graph or assignment.
func TestPairArenasLiveWithKwayArena(t *testing.T) {
	g := weightedGrid(t, 60, 60, 1)
	n := g.NumVertices()
	const k = 16
	caps := KWayCaps(g, k, 1.05)
	pool := graph.NewPool(4)
	ks := getKwayScratch(n)
	defer putKwayScratch(ks)
	kwayRefineWith(context.Background(), g, stripedAssignment(n, k), k, caps, 4, pool, ks)
	if got := len(ks.pairFree); got < 1 || got > pool.Width() {
		t.Fatalf("%d pair arenas after a run on %d workers", got, pool.Width())
	}
	before := map[*pairScratch]bool{}
	for _, ps := range ks.pairFree {
		before[ps] = true
		if ps.ks != nil || ps.g != nil || ps.part != nil || ps.localID != nil || ps.caps != nil {
			t.Errorf("idle pair arena still references its last run's inputs")
		}
		if cap(ps.verts) == 0 {
			t.Errorf("pair arena on the free list was never used")
		}
	}
	runtime.GC()
	runtime.GC()
	kwayRefineWith(context.Background(), g, stripedAssignment(n, k), k, caps, 4, nil, ks)
	reused := 0
	for _, ps := range ks.pairFree {
		if before[ps] {
			reused++
		}
	}
	if reused != len(before) || len(ks.pairFree) != len(before) {
		t.Errorf("%d of %d pair arenas survived a GC and a serial call (%d on the list)", reused, len(before), len(ks.pairFree))
	}
}

// TestKWayStampWrap: running the pass stamp over its int32 range drops the
// idle records and nothing else — the refined assignment is that of a young
// arena.
func TestKWayStampWrap(t *testing.T) {
	g := weightedGrid(t, 60, 60, 1)
	n := g.NumVertices()
	const k = 16
	caps := KWayCaps(g, k, 1.05)
	want := stripedAssignment(n, k)
	kwayRefine(context.Background(), g, want, k, caps, 12, nil)

	got := stripedAssignment(n, k)
	ks := getKwayScratch(n)
	defer putKwayScratch(ks)
	ks.stamp = math.MaxInt32 - 3 // wraps in the third pass
	st := kwayRefineWith(context.Background(), g, got, k, caps, 12, nil, ks)
	if st.passes < 5 || ks.stamp > 64 {
		t.Fatalf("stamp %d after %d passes: the wrap was not crossed", ks.stamp, st.passes)
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: part %d across the wrap, %d without", v, got[v], want[v])
		}
	}
}

// TestRefineKWayRejectsOutOfRangeLabels: a label outside [0, k) is an input
// error, not an index panic in the part-weight table.
func TestRefineKWayRejectsOutOfRangeLabels(t *testing.T) {
	g := graph.Grid(8, 8)
	for _, bad := range []int32{-1, 4, 99} {
		part := stripedAssignment(g.NumVertices(), 4)
		part[17] = bad
		if err := refineFresh(context.Background(), g, part, 4, RefineOptions{}, nil, nil); err == nil {
			t.Errorf("accepted label %d with k = 4", bad)
		}
	}
}
