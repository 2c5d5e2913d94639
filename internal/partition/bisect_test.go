package partition

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// chordGraph builds a spanning chain plus n random chords with edge weights
// in [1, maxW] and vertex weights in [0, 4] per constraint.
func chordGraph(rng *rand.Rand, n, ncon, maxW int) *graph.Graph {
	b := graph.NewBuilder(ncon)
	w := make([]int32, ncon)
	for i := 0; i < n; i++ {
		for c := range w {
			w[c] = int32(rng.Intn(5))
		}
		b.AddVertex(w...)
	}
	for i := 1; i < n; i++ {
		b.AddEdge(int32(i-1), int32(i), int32(1+rng.Intn(maxW)))
	}
	for i := 0; i < n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			b.AddEdge(int32(u), int32(v), int32(1+rng.Intn(maxW)))
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestFMStateMatchesRecompute: after every pass — improving, or
// non-improving and therefore rolled back in full — the gain state
// refinement carried through the moves equals a from-scratch sweep, on
// large graphs, on small ones and on graphs whose weighted degree dwarfs the
// vertex count, as on heavy coarsest graphs.
func TestFMStateMatchesRecompute(t *testing.T) {
	cases := []struct {
		name           string
		minN, spanN    int
		maxW           int
		improved, idle int
	}{
		{name: "large", minN: 96, spanN: 120, maxW: 4},
		{name: "small-n", minN: 8, spanN: 88, maxW: 4},
		{name: "heavy-degree", minN: 96, spanN: 60, maxW: 2000},
	}
	for ci := range cases {
		tc := &cases[ci]
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := tc.minN + rng.Intn(tc.spanN)
			g := chordGraph(rng, n, 1+rng.Intn(3), tc.maxW)
			where := make([]int32, n)
			for i := range where {
				where[i] = int32(rng.Intn(2))
			}
			caps0, caps1 := sideCaps(g, 0.3+0.4*rng.Float64(), 1.05)
			sc := new(scratch)
			b := newBisection(g, where, caps0, caps1, sc)
			st := &sc.fm
			st.sweep(b)
			for pass := 0; pass < 12; pass++ {
				improved := st.pass(b, sc)
				var fresh fmState
				fresh.sweep(b)
				if !slices.Equal(st.gain, fresh.gain) || !slices.Equal(st.wdeg, fresh.wdeg) {
					t.Errorf("seed %d pass %d (improved=%v): carried gain/ed state differs from a fresh sweep", seed, pass, improved)
					return false
				}
				if cut := ComputeEdgeCut(g, b.where); st.cut != cut || fresh.cut != cut {
					t.Errorf("seed %d pass %d: carried cut %d, swept %d, recomputed %d", seed, pass, st.cut, fresh.cut, cut)
					return false
				}
				if !improved {
					tc.idle++
					return true
				}
				tc.improved++
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.improved == 0 || tc.idle == 0 {
			t.Errorf("%s: saw %d improving and %d non-improving passes, want both kinds", tc.name, tc.improved, tc.idle)
		}
	}
}

// exhaustiveInitial is the trial loop without the seed-vertex memo and
// without the memoized second sweep: every trial sweeps twice, grows,
// refines and is scored with an independently computed cut.
func exhaustiveInitial(g *graph.Graph, frac float64, caps0, caps1 []int64, opt Options, rng randSource, sc *scratch) []int32 {
	n := g.NumVertices()
	var best []int32
	var bestViol float64
	var bestCut int64
	for trial := 0; trial < opt.InitTrials; trial++ {
		where := make([]int32, n)
		seed := bfsFarthest(g, bfsFarthest(g, int32(rng.Intn(n)), sc), sc)
		viol, _, _ := initTrial(g, where, seed, frac, caps0, caps1, opt.RefinePasses, sc, obs.Span{})
		if cut := ComputeEdgeCut(g, where); best == nil || betterState(viol, cut, bestViol, bestCut) {
			best, bestViol, bestCut = where, viol, cut
		}
	}
	return best
}

// TestInitTrialDedupMatchesExhaustive: skipping a seed vertex the node has
// already tried never changes the winning assignment or the random stream.
func TestInitTrialDedupMatchesExhaustive(t *testing.T) {
	// Many components make many distinct pseudo-peripheral seeds (an isolated
	// path's far end is reached only from that path), so the 256-trial rows
	// fill the tried set well past the handful a connected mesh offers.
	islands := graph.NewBuilder(1)
	for i := 0; i < 150; i++ {
		a, b, c := islands.AddVertex(1), islands.AddVertex(1), islands.AddVertex(2)
		islands.AddEdge(a, b, 1)
		islands.AddEdge(b, c, 3)
	}
	disconnected, err := islands.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Second constraint carried by a single vertex, third by none.
	sparse := graph.NewBuilder(3)
	for i := 0; i < 12*12; i++ {
		if i == 5 {
			sparse.AddVertex(1, 7, 0)
		} else {
			sparse.AddVertex(1, 0, 0)
		}
	}
	grid := graph.Grid(12, 12)
	for v := int32(0); v < 12*12; v++ {
		for _, u := range grid.Neighbors(v) {
			if u > v {
				sparse.AddEdge(v, u, 1)
			}
		}
	}
	zeroWeight, err := sparse.Build()
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(14, 9)},
		{"grid/below-bucket-gate", graph.Grid(9, 8)},
		{"disconnected", disconnected},
		{"zero-weight-constraint", zeroWeight},
	}
	for _, gc := range graphs {
		for _, trials := range []int{1, 8, 256} {
			for seed := int64(0); seed < 3; seed++ {
				opt := Options{InitTrials: trials}.withDefaults(gc.g.NCon)
				frac := 0.5
				if seed == 2 {
					frac = 1.0 / 3
				}
				caps0, caps1 := sideCaps(gc.g, frac, opt.ImbalanceTol)
				rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				want := exhaustiveInitial(gc.g, frac, caps0, caps1, opt, rngA, new(scratch))
				got, _ := initialBisection(context.Background(), gc.g, frac, caps0, caps1, opt, rngB, new(scratch))
				if !slices.Equal(got, want) {
					t.Errorf("%s trials=%d seed=%d: memoised loop picked a different assignment", gc.name, trials, seed)
				}
				if rngA.Int63() != rngB.Int63() {
					t.Errorf("%s trials=%d seed=%d: memoised loop left the random stream elsewhere", gc.name, trials, seed)
				}
			}
		}
	}
}
