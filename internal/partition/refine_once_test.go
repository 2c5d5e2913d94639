package partition

import (
	"context"
	"fmt"
	"math/rand"
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
// biased and unbiased, and a k in the thousands, with parts of a few
// vertices each. The climb has no bias; its tests take the unbiased rows.
func refineInputs(t *testing.T) []refineInput {
	cyl := mesh.Cylinder(0.002).DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	return []refineInput{
		{"cylinder-ncon4", cyl, 24, false},
		{"cylinder-ncon4-biased", cyl, 24, true},
		{"grid-ncon1", weightedGrid(t, 60, 60, 1), 16, false},
		{"grid-ncon1-biased", weightedGrid(t, 60, 60, 1), 16, true},
		{"grid-ncon4-biased", weightedGrid(t, 48, 48, 4), 12, true},
		// k*k beyond 4 Mi, where the part-pair tables of an earlier k-way
		// engine fell back to maps; the name stays for the test history.
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

// TestConnTableMatchesScan: the connectivity table the moves patch is
// exact — after begin, after every greedy sub-pass, before every move a
// climb tries and after its rollbacks it equals a fresh adjacency scan
// (connTableErr), on every refineInputs graph and on one with zero-weight
// edges. The greedy passes run on every row with its bias, the climb on the
// unbiased rows. The greedy passes share a four-worker pool, so under -race
// the concurrent candidate scans' reads of the table are checked against
// the commits' writes.
func TestConnTableMatchesScan(t *testing.T) {
	pool := graph.NewPool(4)
	// Edge weights 0..9: some vertices touch another part through
	// zero-weight edges only, which the rows must still list.
	inputs := append(refineInputs(t), refineInput{"grid-zero-weight-edges", gridWeightsFrom(t, 40, 40, 1, 0), 8, true})
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			g, k := in.g, in.k
			n := g.NumVertices()
			caps := kwayCaps(g, k, 1.05)
			ks := getKwayScratch(n)
			defer putKwayScratch(ks)
			defer func() { ks.onCommit, ks.onClimb = nil, nil }()
			check := func(engine string, refine func(part []int32) int) {
				part := stripedAssignment(n, k)
				ks.begin(g, part, k)
				if err := connTableErr(g, part, ks); err != nil {
					t.Fatalf("%s: after begin: %v", engine, err)
				}
				rounds, weightless := 0, 0 // entries whose edges all weigh 0
				checkTable := func() {
					rounds++
					if err := connTableErr(g, part, ks); err != nil {
						t.Fatalf("%s: at check %d: %v", engine, rounds, err)
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
				ks.onCommit = checkTable
				ks.onClimb = func(greedyMove) { checkTable() }
				moves := refine(part)
				if moves == 0 {
					t.Fatalf("%s: no move committed: the table was never patched", engine)
				}
				checkTable()
				if in.name == "grid-zero-weight-edges" && weightless == 0 {
					t.Errorf("%s: no row entry carried only zero-weight edges: count-based removal is untested", engine)
				}
				t.Logf("%s: %d moves, %d tables checked, %d weightless entries seen", engine, moves, rounds, weightless)
			}
			check("greedy", func(part []int32) int {
				return kwayGreedy(context.Background(), g, part, k, caps, 12, pool, testBias(part, in.bias), ks).moves
			})
			if !in.bias {
				check("climb", func(part []int32) int {
					var st climbStats
					for pass := 0; pass < 3; pass++ {
						ks.climbPass(g, part, k, caps, &st)
					}
					return st.tried
				})
			}
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
