package partition

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tempart/internal/graph"
	"tempart/internal/mesh"
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

// exhaustiveInitial is the trial loop without the seed-vertex memo, without
// the memoized second sweep, without the grown-state check and without the
// gain state read off the growth: every trial sweeps twice, grows, refines
// from a full sweep and is scored with an independently computed cut.
func exhaustiveInitial(g *graph.Graph, frac float64, caps0, caps1 []int64, opt Options, rng randSource, sc *scratch) []int32 {
	n := g.NumVertices()
	var tg trialGraph
	tg.init(g, frac, caps0, caps1)
	var best []int32
	var bestViol float64
	var bestCut int64
	for trial := 0; trial < opt.InitTrials; trial++ {
		where := make([]int32, n)
		seed := bfsFarthest(g, bfsFarthest(g, int32(rng.Intn(n)), sc), sc)
		b := &sc.bis
		tg.grow(b, where, seed, sc)
		refineBisection(b, opt.RefinePasses, sc, obs.Span{})
		if viol, cut := b.violation(), ComputeEdgeCut(g, where); best == nil || betterState(viol, cut, bestViol, bestCut) {
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
	// The coarsest graph of a mesh bisection, where the trials run.
	cyl := mesh.Cylinder(0.002).DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	h := coarsen(context.Background(), cyl, 128*cyl.NCon, rand.New(rand.NewSource(1)), nil, new(scratch), streamFloor(Options{}))
	defer h.close()
	cylinder := h.coarsest()
	// dups: rows on which some trial must grow an earlier trial's
	// assignment, so the grown-state check is compared, not just present.
	graphs := []struct {
		name string
		g    *graph.Graph
		dups bool
	}{
		{"grid", graph.Grid(14, 9), true},
		{"grid/below-bucket-gate", graph.Grid(9, 8), false},
		// 256 trials refine more than grownKept distinct assignments here.
		{"disconnected", disconnected, true},
		{"zero-weight-constraint", zeroWeight, false},
		{"cylinder-perlevel", cylinder, true},
	}
	for _, gc := range graphs {
		dups := int64(0)
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
				rec := obs.NewRecorder()
				got, _ := initialBisection(obs.WithRecorder(context.Background(), rec), gc.g, frac, caps0, caps1, opt, rngB, new(scratch))
				if !slices.Equal(got, want) {
					t.Errorf("%s trials=%d seed=%d: memoised loop picked a different assignment", gc.name, trials, seed)
				}
				if rngA.Int63() != rngB.Int63() {
					t.Errorf("%s trials=%d seed=%d: memoised loop left the random stream elsewhere", gc.name, trials, seed)
				}
				run, skipped, dup, refined := trialCounts(t, rec.Snapshot())
				if run+skipped != int64(trials) || run != dup+refined {
					t.Errorf("%s trials=%d seed=%d: %d run + %d skipped, %d duplicates + %d refined", gc.name, trials, seed, run, skipped, dup, refined)
				}
				dups += dup
			}
		}
		if gc.dups && dups == 0 {
			t.Errorf("%s: no trial grew an earlier trial's assignment — the grown-state check is untested", gc.name)
		}
	}
}

// trialCounts reads the trial counters of the one partition/initial span in
// spans, and counts the refinements under it — the first FM pass of each.
func trialCounts(t *testing.T, spans []obs.SpanRecord) (run, skipped, dup, refined int64) {
	t.Helper()
	initial := -1
	for i, sp := range spans {
		switch sp.Name {
		case "partition/initial":
			if initial >= 0 {
				t.Fatal("more than one partition/initial span")
			}
			initial = i
			run, _ = intAttr(sp, "trials_run")
			skipped, _ = intAttr(sp, "trials_skipped")
			dup, _ = intAttr(sp, "trials_dup")
		case "partition/refine/fm_pass":
			if pass, _ := intAttr(sp, "pass"); pass == 0 && int(sp.Parent) == initial {
				refined++
			}
		}
	}
	if initial < 0 {
		t.Fatal("no partition/initial span")
	}
	return run, skipped, dup, refined
}

// TestGrownDupNeedsEqualState: a kept trial counts as grown before only when
// its packed assignment equals the new one, never on an equal hash alone.
func TestGrownDupNeedsEqualState(t *testing.T) {
	a := []int32{0, 1, 1, 0, 1}
	b := []int32{1, 1, 1, 0, 1}
	wa, ha := packSides(nil, a)
	wb, hb := packSides(nil, b)
	if ha == hb || slices.Equal(wa, wb) {
		t.Fatal("different assignments packed alike")
	}
	rec := trialRecord{hash: hb, viol: 0.5, cut: 7}
	if _, ok := grownBefore([]trialRecord{rec}, wa, wb, hb); ok {
		t.Error("an equal hash over different words made a duplicate")
	}
	kept := append(append([]uint64(nil), wa...), wb...)
	recs := []trialRecord{{hash: ha}, rec}
	if r, ok := grownBefore(recs, kept, wb, hb); !ok || r != rec {
		t.Errorf("equal words at the second kept trial: got %+v, %v", r, ok)
	}
}

// referencePick is the bisection FM's pick before it peeked: pop each side's
// top candidate, leave an inadmissible one out, re-insert the loser, and
// evaluate every candidate by the float violation sum.
func referencePick(b *bisection, bk [2]*gainBuckets, gain []int32, curViol float64) (int32, float64, bool) {
	const eps = 1e-12
	for probe := 0; probe < 2; probe++ {
		var bestV int32 = -1
		var bestGain int32
		var bestViol float64
		for s := int32(0); s < 2; s++ {
			v, ok := bk[s].popMax()
			if !ok {
				continue
			}
			nv := b.violationAfterMove(v)
			if nv > curViol+eps {
				continue
			}
			if bestV < 0 || nv < bestViol-eps || (nv <= bestViol+eps && gain[v] > bestGain) {
				if bestV >= 0 {
					bk[b.where[bestV]].insert(bestV, gain[bestV])
				}
				bestV, bestGain, bestViol = v, gain[v], nv
			} else {
				bk[s].insert(v, gain[v])
			}
		}
		if bestV >= 0 {
			return bestV, bestViol, true
		}
		if bk[0].len()+bk[1].len() == 0 {
			break
		}
	}
	return -1, 0, false
}

// bucketDump lists the queued vertices of bk from the highest bucket down,
// each bucket in hand-out order, with a -1 after every non-empty bucket.
func bucketDump(bk *gainBuckets) []int32 {
	var out []int32
	for idx := len(bk.heads) - 1; idx >= 0; idx-- {
		if bk.heads[idx] < 0 {
			continue
		}
		for v := bk.heads[idx]; v >= 0; v = bk.next[v] {
			out = append(out, v)
		}
		out = append(out, -1)
	}
	return out
}

// TestPickMatchesReference: on random bisection states the peeking pick
// chooses the vertex the pop/re-insert pick chooses, with the same
// violation, and leaves both buckets in the same order, pick after pick
// until they drain. The caps sit a few units around the side weights, so
// states within every cap (the integer path) and over it both occur. Rows
// cover negative vertex weights, and totals above 2^40, where a move over a
// cap can still have a violation within the epsilon and the integer path
// must fall back to the float sum.
func TestPickMatchesReference(t *testing.T) {
	rows := []struct {
		name        string
		minW, spanW int32 // vertex weights minW .. minW+spanW-1
		heavy       bool  // every other vertex weighs 2^30 on constraint 0
	}{
		{name: "plain", minW: 0, spanW: 5},
		{name: "negative-weights", minW: -3, spanW: 8},
		{name: "totals-above-2^40", minW: 1, spanW: 3, heavy: true},
	}
	for _, row := range rows {
		var picks, balanced, within int
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 40 + rng.Intn(200)
			if row.heavy {
				n = 2200 + rng.Intn(400)
			}
			ncon := 1 + rng.Intn(3)
			bld := graph.NewBuilder(ncon)
			w := make([]int32, ncon)
			for v := 0; v < n; v++ {
				for c := range w {
					w[c] = row.minW + rng.Int31n(row.spanW)
				}
				if row.heavy && v%2 == 0 {
					w[0] = 1 << 30
				}
				bld.AddVertex(w...)
			}
			for v := 1; v < n; v++ {
				bld.AddEdge(int32(v-1), int32(v), 1+rng.Int31n(4))
				if u := rng.Intn(n); u != v {
					bld.AddEdge(int32(u), int32(v), 1+rng.Int31n(4))
				}
			}
			g, err := bld.Build()
			if err != nil {
				t.Fatal(err)
			}
			where := make([]int32, n)
			for v := range where {
				where[v] = int32(rng.Intn(2))
			}
			var scA, scB scratch
			side := newBisection(g, where, make([]int64, ncon), make([]int64, ncon), &scA).side
			caps := [2][]int64{make([]int64, ncon), make([]int64, ncon)}
			for s := range caps {
				for c := range caps[s] {
					caps[s][c] = side[s][c] + int64(rng.Intn(6)) - 1
				}
			}
			bA := newBisection(g, slices.Clone(where), caps[0], caps[1], &scA)
			bB := newBisection(g, slices.Clone(where), caps[0], caps[1], &scB)
			var st fmState
			st.sweep(bA)
			var bk [2][2]gainBuckets // [copy][side]
			for i := range bk {
				bk[i][0].reset(n, st.maxw, lifo)
				bk[i][1].reset(n, st.maxw, lifo)
				for v := n - 1; v >= 0; v-- {
					if st.gain[v]+st.wdeg[v] > 0 {
						bk[i][where[v]].insert(int32(v), st.gain[v])
					}
				}
			}
			ref, got := [2]*gainBuckets{&bk[0][0], &bk[0][1]}, [2]*gainBuckets{&bk[1][0], &bk[1][1]}
			cur := bA.violation()
			if cur == 0 {
				balanced++
			}
			for {
				wv, wViol, wok := referencePick(bA, ref, st.gain, cur)
				v, viol, ok := pickMoveBuckets(bB, got, st.gain, cur)
				if v != wv || viol != wViol || ok != wok {
					t.Fatalf("%s seed %d: picked %d (violation %g, %v), reference %d (%g, %v)", row.name, seed, v, viol, ok, wv, wViol, wok)
				}
				for s := range got {
					if d, wd := bucketDump(got[s]), bucketDump(ref[s]); !slices.Equal(d, wd) {
						t.Fatalf("%s seed %d: side %d buckets %v after the pick, reference %v", row.name, seed, s, d, wd)
					}
				}
				if !ok {
					break
				}
				picks++
				if cur == 0 && viol > 0 {
					within++ // over a cap, yet within the epsilon
				}
			}
		}
		t.Logf("%s: %d picks, %d states within every cap, %d over-cap picks within the epsilon", row.name, picks, balanced, within)
		if picks == 0 || balanced == 0 {
			t.Errorf("%s: %d picks from %d states within every cap", row.name, picks, balanced)
		}
		if row.heavy && within == 0 {
			t.Errorf("%s: no over-cap move was admissible, so the integer path's fallback is untested", row.name)
		}
	}
}

// TestInitialBisectionAllocs: once its arena has grown, the trial loop —
// growing, packing, the grown-state check and refinement — allocates
// nothing.
func TestInitialBisectionAllocs(t *testing.T) {
	g := weightedGrid(t, 30, 30, 3)
	opt := Options{InitTrials: 16}.withDefaults(g.NCon)
	caps0, caps1 := sideCaps(g, 0.5, opt.ImbalanceTol)
	sc := new(scratch)
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	initialBisection(ctx, g, 0.5, caps0, caps1, opt, rng, sc)
	allocs := testing.AllocsPerRun(5, func() {
		rng.Seed(1)
		initialBisection(ctx, g, 0.5, caps0, caps1, opt, rng, sc)
	})
	if allocs != 0 {
		t.Errorf("steady-state trial loop allocates %.1f objects/op, want 0", allocs)
	}
}

// TestGrownFMStateMatchesSweep: the gain state a trial reads off its growth
// equals a sweep of the grown assignment, on chord graphs with one to three
// constraints, light and heavy edges, and growth that parks and jumps
// components (zero-weight vertices, caps near the target).
func TestGrownFMStateMatchesSweep(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(200)
		maxW := 4
		if seed%2 == 0 {
			maxW = 2000
		}
		g := chordGraph(rng, n, 1+rng.Intn(3), maxW)
		frac := 0.2 + 0.6*rng.Float64()
		caps0, caps1 := sideCaps(g, frac, 1+0.1*rng.Float64())
		var tg trialGraph
		tg.init(g, frac, caps0, caps1)
		sc := new(scratch)
		where := make([]int32, n)
		b := &sc.bis
		tg.grow(b, where, int32(rng.Intn(n)), sc)
		var got, want fmState
		got.fromGrowth(b, &tg, sc.growGain)
		want.sweep(b)
		if !slices.Equal(got.gain, want.gain) || !slices.Equal(got.wdeg, want.wdeg) || got.maxw != want.maxw || got.cut != want.cut {
			t.Errorf("seed %d: grown state (maxw %d, cut %d) differs from a sweep (maxw %d, cut %d)", seed, got.maxw, got.cut, want.maxw, want.cut)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
