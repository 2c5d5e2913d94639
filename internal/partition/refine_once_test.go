package partition

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tempart/internal/graph"
	"tempart/internal/mesh"
)

// weightedGrid is an nx×ny grid with pseudo-random edge weights 1..9 and ncon
// vertex weights 1..3 — the shape coarse levels have (heavy, uneven edges),
// which the unit-weight dual graphs do not.
func weightedGrid(t *testing.T, nx, ny, ncon int) *graph.Graph {
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
				b.AddEdge(v, v+1, 1+rng.Int31n(9))
			}
			if i+1 < nx {
				b.AddEdge(v, v+int32(ny), 1+rng.Int31n(9))
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
// biased and unbiased, and a k whose pair tables are maps.
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
// would have returned no move". Every skipped slot is re-run on the spot by
// adjacency scan and must come back empty, and the refined assignment must
// equal that of an exhaustive refinement whose idle records are wiped after
// every pass. The inputs must also reach the case that makes the bookkeeping
// subtle: a pair that runs idle after an earlier round of the same pass
// changed one of its parts (its list is stale, so the idle result says
// nothing about the next pass).
func TestIdlePairSkipMatchesExhaustive(t *testing.T) {
	const passes = 12
	staleIdleAnywhere := 0
	for _, in := range refineInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			g, k := in.g, in.k
			n := g.NumVertices()
			if densePairs(k) == (in.name == "grid-map-fallback") {
				t.Fatalf("k = %d: dense = %v", k, densePairs(k))
			}
			initial := stripedAssignment(n, k)
			bias := testBias(initial, in.bias)
			caps := kwayCaps(g, k, 1.05)

			// Exhaustive reference: no idle record survives a pass.
			want := append([]int32(nil), initial...)
			ref := getKwayScratch(n)
			ref.begin(g, want, k)
			for pass := 0; pass < passes; pass++ {
				var st kwayStats
				kwayPass(g, want, k, caps, ref, nil, bias, &st)
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
				if mv := probe.run(ks, &ks.pairs[pi], ks.lists[pi], nil, false, nil); len(mv) != 0 {
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
				kwayPass(g, got, k, caps, ks, nil, bias, &total)
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

// TestSweepGainsMatchRegister: the gains, sides and degree bound the sweep
// hands to a pair are exactly what the adjacency scan computes, for every
// list vertex of every pair.
func TestSweepGainsMatchRegister(t *testing.T) {
	for _, in := range refineInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			g, k := in.g, in.k
			n := g.NumVertices()
			part := stripedAssignment(n, k)
			bias := testBias(part, in.bias)
			if in.bias {
				// Move the origins off the current parts for a third of the
				// vertices so both signs of the bias occur.
				for v := range bias.origin {
					if v%3 == 0 {
						bias.origin[v] = (bias.origin[v] + 1) % int32(k)
					}
				}
			}
			// Not returned to the pool: a bare sweep leaves the pair index set.
			ks := getKwayScratch(n)
			ks.begin(g, part, k)
			ks.sweep(g, part, k)
			if len(ks.pairs) == 0 {
				t.Fatal("no pairs discovered on a striped assignment")
			}
			arm := func(pr *pairInfo) *pairScratch {
				return &pairScratch{g: g, part: part, localID: ks.localID, a: pr.a, b: pr.b, bias: bias}
			}
			for pi := range ks.pairs {
				pr := &ks.pairs[pi]
				list := ks.lists[pi]
				scan := arm(pr)
				scan.registerAll(list)
				for _, v := range scan.verts {
					ks.localID[v] = -1
				}
				swept := arm(pr)
				swept.seed(list, ks.lgain[pi], pr.maxDeg)
				for _, v := range swept.verts {
					ks.localID[v] = -1
				}
				if len(scan.verts) != len(list) || len(swept.verts) != len(list) {
					t.Fatalf("pair (%d,%d): %d list vertices, scan registered %d, sweep %d", pr.a, pr.b, len(list), len(scan.verts), len(swept.verts))
				}
				if scan.maxDeg != swept.maxDeg {
					t.Errorf("pair (%d,%d): maxDeg %d from the sweep, %d from the scan", pr.a, pr.b, swept.maxDeg, scan.maxDeg)
				}
				for l, v := range list {
					if scan.verts[l] != v || swept.verts[l] != v {
						t.Fatalf("pair (%d,%d) local %d: vertex %d, scan has %d, sweep %d", pr.a, pr.b, l, v, scan.verts[l], swept.verts[l])
					}
					if scan.gain[l] != swept.gain[l] || scan.side[l] != swept.side[l] || swept.locked[l] {
						t.Fatalf("pair (%d,%d) vertex %d: sweep gives gain %d side %d locked %v, scan gain %d side %d",
							pr.a, pr.b, v, swept.gain[l], swept.side[l], swept.locked[l], scan.gain[l], scan.side[l])
					}
				}
			}
		})
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
	caps := kwayCaps(g, k, 1.05)
	pool := graph.NewPool(4)
	ks := getKwayScratch(n)
	defer putKwayScratch(ks)
	kwayRefineWith(context.Background(), g, stripedAssignment(n, k), k, caps, 4, pool, moveBias{}, ks)
	if got := len(ks.pairFree); got < 1 || got > pool.Width() {
		t.Fatalf("%d pair arenas after a run on %d workers", got, pool.Width())
	}
	before := map[*pairScratch]bool{}
	for _, ps := range ks.pairFree {
		before[ps] = true
		if ps.g != nil || ps.part != nil || ps.localID != nil || ps.caps != nil || ps.bias.origin != nil {
			t.Errorf("idle pair arena still references its last run's inputs")
		}
		if cap(ps.verts) == 0 {
			t.Errorf("pair arena on the free list was never used")
		}
	}
	runtime.GC()
	runtime.GC()
	kwayRefineWith(context.Background(), g, stripedAssignment(n, k), k, caps, 4, nil, moveBias{}, ks)
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
	caps := kwayCaps(g, k, 1.05)
	want := stripedAssignment(n, k)
	kwayRefine(context.Background(), g, want, k, caps, 12, nil)

	got := stripedAssignment(n, k)
	ks := getKwayScratch(n)
	defer putKwayScratch(ks)
	ks.stamp = math.MaxInt32 - 3 // wraps in the third pass
	st := kwayRefineWith(context.Background(), g, got, k, caps, 12, nil, moveBias{}, ks)
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
		if err := RefineKWay(context.Background(), g, part, 4, RefineOptions{}); err == nil {
			t.Errorf("accepted label %d with k = 4", bad)
		}
	}
}
