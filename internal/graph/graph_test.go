package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// totalEdgeWeight sums the weights of g's undirected edges.
func totalEdgeWeight(g *Graph) int64 {
	var s int64
	for _, w := range g.AdjWgt {
		s += int64(w)
	}
	return s / 2
}

func mustBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestBuilderTriangle(t *testing.T) {
	b := NewBuilder(2)
	a := b.AddVertex(1, 0)
	c := b.AddVertex(0, 1)
	d := b.AddVertex(1, 1)
	b.AddEdge(a, c, 1)
	b.AddEdge(c, d, 2)
	b.AddEdge(d, a, 3)
	g := mustBuild(t, b)

	if got := g.NumVertices(); got != 3 {
		t.Errorf("NumVertices = %d, want 3", got)
	}
	if got := g.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3", got)
	}
	if got := totalEdgeWeight(g); got != 6 {
		t.Errorf("total edge weight = %d, want 6", got)
	}
	tot := g.TotalWeights()
	if tot[0] != 2 || tot[1] != 2 {
		t.Errorf("TotalWeights = %v, want [2 2]", tot)
	}
	if !slices.Contains(g.Neighbors(a), c) || !slices.Contains(g.Neighbors(c), a) {
		t.Error("missing edge a-c")
	}
	if slices.Contains(g.Neighbors(a), a) {
		t.Error("unexpected self edge")
	}
}

func TestBuilderMergesDuplicateEdges(t *testing.T) {
	b := NewBuilder(1)
	u := b.AddVertex(1)
	v := b.AddVertex(1)
	b.AddEdge(u, v, 2)
	b.AddEdge(v, u, 3) // same undirected edge
	g := mustBuild(t, b)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after merge", g.NumEdges())
	}
	if w := g.EdgeWeights(u)[0]; w != 5 {
		t.Errorf("merged weight = %d, want 5", w)
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(1)
	b.AddVertex(1)
	b.AddEdge(0, 5, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted out-of-range edge")
	}
}

// TestBuilderReserveNoRegrowth: after Reserve with exact counts, ingest must
// not reallocate the vertex or edge backing arrays — that is the compact-CSR
// contract the mesh generators rely on at paper scale.
func TestBuilderReserveNoRegrowth(t *testing.T) {
	const nx, ny = 23, 17
	b := NewBuilder(2)
	b.Reserve(nx*ny, (nx-1)*ny+nx*(ny-1))
	vcap, ecap := cap(b.vwgt), cap(b.edges)
	for i := 0; i < nx*ny; i++ {
		b.AddVertex(1, int32(i%3))
	}
	id := func(i, j int) int32 { return int32(i*ny + j) }
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			if i+1 < nx {
				b.AddEdge(id(i, j), id(i+1, j), 1)
			}
			if j+1 < ny {
				b.AddEdge(id(i, j), id(i, j+1), 1)
			}
		}
	}
	if cap(b.vwgt) != vcap {
		t.Errorf("vwgt regrew: cap %d -> %d", vcap, cap(b.vwgt))
	}
	if cap(b.edges) != ecap {
		t.Errorf("edges regrew: cap %d -> %d", ecap, cap(b.edges))
	}
	g := mustBuild(t, b)
	if g.NumVertices() != nx*ny {
		t.Fatalf("NumVertices = %d, want %d", g.NumVertices(), nx*ny)
	}
	if g.NumEdges() != (nx-1)*ny+nx*(ny-1) {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), (nx-1)*ny+nx*(ny-1))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Reserve on a partially filled builder keeps existing content intact.
	b2 := NewBuilder(1)
	b2.AddVertex(7)
	b2.AddVertex(9)
	b2.AddEdge(0, 1, 4)
	b2.Reserve(2, 1)
	b2.AddVertex(11)
	b2.AddEdge(1, 2, 5)
	g2 := mustBuild(t, b2)
	if got := g2.WeightVec(2)[0]; got != 11 {
		t.Errorf("vertex 2 weight = %d, want 11", got)
	}
	if got := g2.EdgeWeights(0)[0]; got != 4 {
		t.Errorf("edge {0,1} weight = %d, want 4", got)
	}
}

func TestBuilderPanicsOnSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(0,0) did not panic")
		}
	}()
	b := NewBuilder(1)
	b.AddVertex(1)
	b.AddEdge(0, 0, 1)
}

func TestGridStructure(t *testing.T) {
	g := Grid(3, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.NumVertices(); got != 12 {
		t.Errorf("NumVertices = %d, want 12", got)
	}
	// Edges of a 3x4 grid: 2*4 vertical + 3*3 horizontal = 17.
	if got := g.NumEdges(); got != 17 {
		t.Errorf("NumEdges = %d, want 17", got)
	}
	// Corner vertex has degree 2.
	if d := len(g.Neighbors(0)); d != 2 {
		t.Errorf("Degree(corner) = %d, want 2", d)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(1)
	for i := 0; i < 6; i++ {
		b.AddVertex(1)
	}
	// Two triangles.
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g := mustBuild(t, b)
	comp, n := g.Components()
	if n != 2 {
		t.Fatalf("Components count = %d, want 2", n)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("first triangle split across components")
	}
	if comp[3] != comp[4] || comp[4] != comp[5] {
		t.Error("second chain split across components")
	}
	if comp[0] == comp[3] {
		t.Error("disconnected pieces share a component")
	}
}

func TestComponentsSingletons(t *testing.T) {
	b := NewBuilder(1)
	for i := 0; i < 4; i++ {
		b.AddVertex(1)
	}
	g := mustBuild(t, b)
	_, n := g.Components()
	if n != 4 {
		t.Fatalf("Components = %d, want 4 singletons", n)
	}
}

func TestContractPairs(t *testing.T) {
	// 4-cycle with ncon=2; contract opposite... adjacent pairs {0,1} {2,3}.
	b := NewBuilder(2)
	for i := 0; i < 4; i++ {
		b.AddVertex(int32(i), 1)
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 3)
	b.AddEdge(3, 0, 4)
	g := mustBuild(t, b)

	cg := g.ContractP([]int32{0, 0, 1, 1}, 2, nil)
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.NumVertices() != 2 {
		t.Fatalf("coarse vertices = %d, want 2", cg.NumVertices())
	}
	// Coarse weights: {0,1} -> (0+1, 1+1) = (1,2); {2,3} -> (5,2).
	if w := cg.WeightVec(0); w[0] != 1 || w[1] != 2 {
		t.Errorf("coarse WeightVec(0) = %v, want [1 2]", w)
	}
	if w := cg.WeightVec(1); w[0] != 5 || w[1] != 2 {
		t.Errorf("coarse WeightVec(1) = %v, want [5 2]", w)
	}
	// Cross edges 1-2 (w2) and 3-0 (w4) merge into one coarse edge w6.
	if cg.NumEdges() != 1 {
		t.Fatalf("coarse edges = %d, want 1", cg.NumEdges())
	}
	if w := cg.EdgeWeights(0)[0]; w != 6 {
		t.Errorf("coarse edge weight = %d, want 6", w)
	}
}

func TestContractIdentityPreservesGraph(t *testing.T) {
	g := Grid(5, 5)
	id := make([]int32, g.NumVertices())
	for i := range id {
		id[i] = int32(i)
	}
	cg := g.ContractP(id, g.NumVertices(), nil)
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.NumEdges() != g.NumEdges() {
		t.Errorf("edges %d != %d", cg.NumEdges(), g.NumEdges())
	}
	if totalEdgeWeight(cg) != totalEdgeWeight(g) {
		t.Errorf("edge weight %d != %d", totalEdgeWeight(cg), totalEdgeWeight(g))
	}
}

func TestSubgraphInduced(t *testing.T) {
	g := Grid(4, 4)
	// Take the top-left 2x2 block: ids 0,1,4,5.
	sg, orig := g.Subgraph([]int32{0, 1, 4, 5})
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
	if sg.NumVertices() != 4 {
		t.Fatalf("sub vertices = %d, want 4", sg.NumVertices())
	}
	if sg.NumEdges() != 4 {
		t.Fatalf("sub edges = %d, want 4 (a 4-cycle)", sg.NumEdges())
	}
	if orig[2] != 4 {
		t.Errorf("orig[2] = %d, want 4", orig[2])
	}
}

// randomGraph builds a random connected-ish graph for property tests.
func randomGraph(rng *rand.Rand, n, ncon int) *Graph {
	b := NewBuilder(ncon)
	w := make([]int32, ncon)
	for i := 0; i < n; i++ {
		for c := range w {
			w[c] = int32(rng.Intn(5))
		}
		b.AddVertex(w...)
	}
	// Spanning chain plus random chords.
	for i := 1; i < n; i++ {
		b.AddEdge(int32(i-1), int32(i), int32(1+rng.Intn(4)))
	}
	for k := 0; k < n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(int32(u), int32(v), int32(1+rng.Intn(4)))
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestContractConservesWeightsProperty(t *testing.T) {
	// Property: total vertex weight per constraint and total cross-edge
	// weight + internal weight are conserved by any contraction.
	f := func(seed int64, nSmall uint8, parts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nSmall%40)
		g := randomGraph(rng, n, 1+int(nSmall%3))
		ncoarse := 1 + int(parts)%n
		cmap := make([]int32, n)
		// Ensure density: each coarse id used at least where possible.
		for i := range cmap {
			cmap[i] = int32(i % ncoarse)
		}
		cg := g.ContractP(cmap, ncoarse, nil)
		if err := cg.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		tf, tc := g.TotalWeights(), cg.TotalWeights()
		for c := range tf {
			if tf[c] != tc[c] {
				return false
			}
		}
		// Coarse edge weight == fine cross-coarse edge weight.
		var cross int64
		for v := 0; v < n; v++ {
			for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
				u := g.Adjncy[i]
				if cmap[v] != cmap[u] {
					cross += int64(g.AdjWgt[i])
				}
			}
		}
		return totalEdgeWeight(cg) == cross/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSubgraphWeightsMatchProperty(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(nSmall%30)
		g := randomGraph(rng, n, 2)
		// Random subset of about half the vertices.
		var vs []int32
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				vs = append(vs, int32(i))
			}
		}
		if len(vs) == 0 {
			vs = []int32{0}
		}
		sg, orig := g.Subgraph(vs)
		if err := sg.Validate(); err != nil {
			return false
		}
		for i, v := range orig {
			a, b := sg.WeightVec(int32(i)), g.WeightVec(v)
			for c := range a {
				if a[c] != b[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := &Graph{
		Xadj:   []int32{0, 1, 1},
		Adjncy: []int32{1},
		AdjWgt: []int32{1},
		NCon:   1,
		VWgt:   []int32{1, 1},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted asymmetric graph")
	}
}
