package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates an undirected graph edge by edge and produces a CSR
// Graph. Duplicate edges are merged by summing their weights. Self loops are
// rejected at build time.
type Builder struct {
	ncon  int
	nv    int
	vwgt  []int32 // flat n×ncon constraint matrix, row per vertex
	edges []builderEdge
}

type builderEdge struct {
	u, v int32
	w    int32
}

// NewBuilder returns a Builder for graphs with ncon balance constraints per
// vertex.
func NewBuilder(ncon int) *Builder {
	if ncon < 1 {
		ncon = 1
	}
	return &Builder{ncon: ncon}
}

// Reserve pre-sizes the builder for nv vertices and ne undirected edges, so
// ingest from a source with exact counts (a mesh knows its cell and interior
// face totals) runs without any append regrowth — at paper scale the
// geometric-doubling garbage of a cold builder is several times the final
// CSR footprint.
func (b *Builder) Reserve(nv, ne int) {
	if c := nv * b.ncon; cap(b.vwgt)-len(b.vwgt) < c {
		grown := make([]int32, len(b.vwgt), len(b.vwgt)+c)
		copy(grown, b.vwgt)
		b.vwgt = grown
	}
	if cap(b.edges)-len(b.edges) < ne {
		grown := make([]builderEdge, len(b.edges), len(b.edges)+ne)
		copy(grown, b.edges)
		b.edges = grown
	}
}

// AddVertex appends a vertex with the given constraint vector and returns its
// id. The vector length must equal the builder's ncon.
func (b *Builder) AddVertex(wgt ...int32) int32 {
	if len(wgt) != b.ncon {
		panic(fmt.Sprintf("graph: AddVertex got %d weights, want %d", len(wgt), b.ncon))
	}
	b.vwgt = append(b.vwgt, wgt...)
	b.nv++
	return int32(b.nv - 1)
}

// AddEdge records the undirected edge {u,v} with the given weight.
func (b *Builder) AddEdge(u, v int32, w int32) {
	if u == v {
		panic(fmt.Sprintf("graph: self loop at %d", u))
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, builderEdge{u, v, w})
}

// Build assembles the CSR graph. It may be called once; the builder should
// not be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
	n := b.nv
	for _, e := range b.edges {
		if e.u < 0 || int(e.v) >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.u, e.v, n)
		}
	}
	// Merge duplicates.
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].u != b.edges[j].u {
			return b.edges[i].u < b.edges[j].u
		}
		return b.edges[i].v < b.edges[j].v
	})
	merged := b.edges[:0]
	for _, e := range b.edges {
		if k := len(merged); k > 0 && merged[k-1].u == e.u && merged[k-1].v == e.v {
			merged[k-1].w += e.w
			continue
		}
		merged = append(merged, e)
	}

	g := &Graph{
		NCon: b.ncon,
		Xadj: make([]int32, n+1),
		VWgt: make([]int32, n*b.ncon),
	}
	copy(g.VWgt, b.vwgt)
	deg := make([]int32, n)
	for _, e := range merged {
		deg[e.u]++
		deg[e.v]++
	}
	for v := 0; v < n; v++ {
		g.Xadj[v+1] = g.Xadj[v] + deg[v]
	}
	g.Adjncy = make([]int32, g.Xadj[n])
	g.AdjWgt = make([]int32, g.Xadj[n])
	fill := make([]int32, n)
	copy(fill, g.Xadj[:n])
	for _, e := range merged {
		g.Adjncy[fill[e.u]], g.AdjWgt[fill[e.u]] = e.v, e.w
		fill[e.u]++
		g.Adjncy[fill[e.v]], g.AdjWgt[fill[e.v]] = e.u, e.w
		fill[e.v]++
	}
	return g, nil
}

// Grid builds the ncon=1, unit-weight graph of an nx×ny 4-neighbour grid.
// Vertex (i,j) has id i*ny+j. It is a convenience for tests.
func Grid(nx, ny int) *Graph {
	b := NewBuilder(1)
	b.Reserve(nx*ny, (nx-1)*ny+nx*(ny-1))
	for i := 0; i < nx*ny; i++ {
		b.AddVertex(1)
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
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
