package graph

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// referenceContract is contraction by definition, kept apart from
// contractRange's position table and pooled buffers: coarse vertex cv weighs
// the sum of its fine vertices, and its row lists every other coarse vertex
// its fine vertices reach, in the order first seen when they are scanned in
// ascending fine id and each fine row in storage order, with the summed
// weight of the fine edges it stands for. A map per row does the dedup.
func referenceContract(g *Graph, cmap []int32, ncoarse int) *Graph {
	members := make([][]int32, ncoarse)
	for v, cv := range cmap {
		members[cv] = append(members[cv], int32(v))
	}
	cg := &Graph{
		NCon:   g.NCon,
		Xadj:   []int32{0},
		Adjncy: []int32{},
		AdjWgt: []int32{},
		VWgt:   make([]int32, ncoarse*g.NCon),
	}
	for cv, vs := range members {
		at := map[int32]int{}
		for _, v := range vs {
			for c := 0; c < g.NCon; c++ {
				cg.VWgt[cv*g.NCon+c] += g.Weight(v, c)
			}
			wgt := g.EdgeWeights(v)
			for i, u := range g.Neighbors(v) {
				cu := cmap[u]
				if int(cu) == cv {
					continue
				}
				if p, seen := at[cu]; seen {
					cg.AdjWgt[p] += wgt[i]
				} else {
					at[cu] = len(cg.Adjncy)
					cg.Adjncy = append(cg.Adjncy, cu)
					cg.AdjWgt = append(cg.AdjWgt, wgt[i])
				}
			}
		}
		cg.Xadj = append(cg.Xadj, int32(len(cg.Adjncy)))
	}
	return cg
}

// sparseTestGraph is a random symmetric CSR graph on n vertices with about
// deg·n/2 edges: weights run from 0 (zero-weight edges and vertex weights
// included), rows are in edge-insertion order, and roughly a tenth of the
// vertices are singletons with no edge at all.
func sparseTestGraph(rng *rand.Rand, n, ncon, deg int) *Graph {
	alone := make([]bool, n)
	for v := range alone {
		alone[v] = rng.Intn(10) == 0
	}
	type half struct{ u, w int32 }
	rows := make([][]half, n)
	seen := map[[2]int32]bool{}
	for e := 0; e < deg*n/2; e++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v || alone[u] || alone[v] || seen[[2]int32{min(u, v), max(u, v)}] {
			continue
		}
		seen[[2]int32{min(u, v), max(u, v)}] = true
		w := int32(rng.Intn(5))
		rows[u] = append(rows[u], half{v, w})
		rows[v] = append(rows[v], half{u, w})
	}
	g := &Graph{NCon: ncon, Xadj: []int32{0}, VWgt: make([]int32, n*ncon)}
	for v, row := range rows {
		for _, h := range row {
			g.Adjncy = append(g.Adjncy, h.u)
			g.AdjWgt = append(g.AdjWgt, h.w)
		}
		g.Xadj = append(g.Xadj, int32(len(g.Adjncy)))
		for c := 0; c < ncon; c++ {
			g.VWgt[v*ncon+c] = int32(rng.Intn(4))
		}
	}
	return g
}

// groupingCmap maps the vertices, in a random order, onto coarse vertices of
// 1–5 fine vertices each, numbered in a random order; the map is dense.
func groupingCmap(rng *rand.Rand, n int) ([]int32, int) {
	fine := rng.Perm(n)
	var groups [][]int
	for i := 0; i < n; {
		size := min(1+rng.Intn(5), n-i)
		groups = append(groups, fine[i:i+size])
		i += size
	}
	cmap := make([]int32, n)
	for id, gi := range rng.Perm(len(groups)) {
		for _, v := range groups[gi] {
			cmap[v] = int32(id)
		}
	}
	return cmap, len(groups)
}

// TestContractMatchesReference: the one-scan, pooled contraction produces
// exactly the reference's arrays, at every pool width, on graphs with
// zero-weight edges and singletons and coarse vertices of 1–5 fine vertices.
// The larger graphs have enough coarse vertices for ContractP to shard the
// assembly at widths 2 and 8. Each result is released before the next
// contraction, so later contractions assemble into recycled arrays whose
// old contents must not leak through.
func TestContractMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	type input struct {
		n, ncon, deg int
	}
	var inputs []input
	for i := 0; i < 60; i++ {
		inputs = append(inputs, input{1 + rng.Intn(80), 1 + rng.Intn(3), rng.Intn(7)})
	}
	inputs = append(inputs, input{9000, 2, 6}, input{20000, 1, 5}, input{20000, 3, 8})
	for i, in := range inputs {
		g := sparseTestGraph(rng, in.n, in.ncon, in.deg)
		if err := g.Validate(); err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		cmap, ncoarse := groupingCmap(rng, in.n)
		want := referenceContract(g, cmap, ncoarse)
		for _, width := range []int{1, 2, 8} {
			got := g.ContractP(cmap, ncoarse, NewPool(width))
			if !graphsEqual(got, want) {
				t.Fatalf("input %d (n=%d, ncon=%d), width %d: contraction differs from the reference", i, in.n, in.ncon, width)
			}
			got.Release()
		}
	}
}

// TestReleasedGraphServesNextContraction: Release zeroes the graph, and the
// arrays it returns, with the contraction's own pooled buffers, are what the
// next contraction assembles into: once a few contraction-and-release
// cycles have settled whatever earlier work left in the pool (one or two
// do), a contraction allocates next to nothing and hands out an array a
// released graph held.
func TestReleasedGraphServesNextContraction(t *testing.T) {
	g := Grid(64, 64)
	n := g.NumVertices()
	cmap := make([]int32, n)
	for v := range cmap {
		cmap[v] = int32(v / 2)
	}
	ncoarse := n / 2
	want := referenceContract(g, cmap, ncoarse)
	released := map[*int32]bool{}
	release := func(cg *Graph) {
		for _, s := range [][]int32{cg.Xadj, cg.Adjncy, cg.AdjWgt, cg.VWgt} {
			released[&s[:1][0]] = true
		}
		cg.Release()
	}

	cg := g.ContractP(cmap, ncoarse, nil)
	if !graphsEqual(cg, want) {
		t.Fatal("first contraction differs from the reference")
	}
	bytes := cg.Bytes()
	release(cg)
	if cg.Xadj != nil || cg.Adjncy != nil || cg.AdjWgt != nil || cg.VWgt != nil || cg.NCon != 0 {
		t.Fatalf("released graph not zeroed: %+v", *cg)
	}
	if raceEnabled {
		t.Skip("sync.Pool bypasses reuse under the race detector")
	}
	// One P and no collection, so the pool keeps what it is given and hands
	// it back to this goroutine. Changing GOMAXPROCS empties sync.Pools, so
	// the cycles that fill the pool run after it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for settle := 0; settle < 3; settle++ {
		cg = g.ContractP(cmap, ncoarse, nil)
		if !graphsEqual(cg, want) {
			t.Fatal("settling contraction differs from the reference")
		}
		release(cg)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	next := g.ContractP(cmap, ncoarse, nil)
	runtime.ReadMemStats(&after)
	if !graphsEqual(next, want) {
		t.Fatal("contraction after a release differs from the reference")
	}
	if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc > bytes/16 {
		t.Errorf("contraction after a release allocated %d bytes, want at most %d (its graph is %d bytes)", alloc, bytes/16, bytes)
	}
	reused := 0
	for _, s := range [][]int32{next.Xadj, next.Adjncy, next.AdjWgt, next.VWgt} {
		if released[&s[:1][0]] {
			reused++
		}
	}
	if reused == 0 {
		t.Error("no array of a released graph serves the next contraction")
	}
	next.Release()
}
