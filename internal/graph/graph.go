// Package graph provides compressed-sparse-row (CSR) graphs with
// multi-constraint vertex weights and weighted edges. It is the substrate on
// which the multilevel partitioner (internal/partition) operates: mesh cells
// become vertices, mesh faces become edges, and each vertex carries a vector
// of balance constraints (one component per temporal level in the MC_TL
// strategy, a single operating-cost component in SC_OC).
package graph

import (
	"errors"
	"fmt"
)

// Graph is an undirected graph in CSR form. Every undirected edge {u,v}
// is stored twice, once in each endpoint's adjacency list. Vertex weights
// are vectors of NCon components, flattened row-major into VWgt
// (vertex v, constraint c at VWgt[v*NCon+c]).
type Graph struct {
	// Xadj has length NumVertices()+1; the neighbours of vertex v are
	// Adjncy[Xadj[v]:Xadj[v+1]] and the corresponding edge weights are
	// AdjWgt[Xadj[v]:Xadj[v+1]].
	Xadj   []int32
	Adjncy []int32
	AdjWgt []int32

	// NCon is the number of balance constraints carried by each vertex.
	NCon int
	// VWgt holds NumVertices()*NCon weights, row-major.
	VWgt []int32
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.Xadj) - 1 }

// NumEdges returns the number of undirected edges (each stored twice
// internally).
func (g *Graph) NumEdges() int { return len(g.Adjncy) / 2 }

// Neighbors returns the adjacency slice of v. The returned slice aliases the
// graph's storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 { return g.Adjncy[g.Xadj[v]:g.Xadj[v+1]] }

// EdgeWeights returns the edge-weight slice of v, parallel to Neighbors(v).
func (g *Graph) EdgeWeights(v int32) []int32 { return g.AdjWgt[g.Xadj[v]:g.Xadj[v+1]] }

// Weight returns constraint component c of vertex v.
func (g *Graph) Weight(v int32, c int) int32 { return g.VWgt[int(v)*g.NCon+c] }

// WeightVec returns the constraint vector of vertex v. The returned slice
// aliases the graph's storage.
func (g *Graph) WeightVec(v int32) []int32 {
	return g.VWgt[int(v)*g.NCon : int(v)*g.NCon+g.NCon]
}

// TotalWeights returns the per-constraint sums over all vertices.
func (g *Graph) TotalWeights() []int64 {
	tot := make([]int64, g.NCon)
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		row := g.VWgt[v*g.NCon : (v+1)*g.NCon]
		for c, w := range row {
			tot[c] += int64(w)
		}
	}
	return tot
}

// Validate checks structural invariants: monotone Xadj, in-range adjacency,
// no self loops, symmetric adjacency with matching edge weights, and
// consistent weight-array lengths. It is intended for tests and for guarding
// external inputs; it is O(E log d).
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n < 0 {
		return errors.New("graph: empty Xadj")
	}
	if g.NCon <= 0 {
		return fmt.Errorf("graph: NCon = %d, want >= 1", g.NCon)
	}
	if len(g.VWgt) != n*g.NCon {
		return fmt.Errorf("graph: len(VWgt) = %d, want %d", len(g.VWgt), n*g.NCon)
	}
	if len(g.AdjWgt) != len(g.Adjncy) {
		return fmt.Errorf("graph: len(AdjWgt) = %d, want %d", len(g.AdjWgt), len(g.Adjncy))
	}
	if g.Xadj[0] != 0 || int(g.Xadj[n]) != len(g.Adjncy) {
		return fmt.Errorf("graph: Xadj bounds [%d,%d], want [0,%d]", g.Xadj[0], g.Xadj[n], len(g.Adjncy))
	}
	for v := 0; v < n; v++ {
		if g.Xadj[v] > g.Xadj[v+1] {
			return fmt.Errorf("graph: Xadj not monotone at %d", v)
		}
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adjncy[i]
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbour %d", v, u)
			}
			if int32(v) == u {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if w := g.findEdgeWeight(u, int32(v)); w < 0 {
				return fmt.Errorf("graph: edge %d->%d not symmetric", v, u)
			} else if w != g.AdjWgt[i] {
				return fmt.Errorf("graph: edge {%d,%d} weight mismatch %d != %d", v, u, g.AdjWgt[i], w)
			}
		}
	}
	return nil
}

// findEdgeWeight returns the weight of edge u->v, or -1 if absent.
func (g *Graph) findEdgeWeight(u, v int32) int32 {
	for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
		if g.Adjncy[i] == v {
			return g.AdjWgt[i]
		}
	}
	return -1
}

// Components labels each vertex with its connected-component index and
// returns (labels, count). Labels are dense in [0,count).
func (g *Graph) Components() ([]int32, int) {
	n := g.NumVertices()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	count := 0
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		comp[s] = id
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.Neighbors(v) {
				if comp[u] < 0 {
					comp[u] = id
					stack = append(stack, u)
				}
			}
		}
	}
	return comp, count
}

// posPools recycles the -1-filled position tables contractRange uses,
// bucketed by power-of-two size class so one paper-scale contraction cannot
// pin multi-megabyte tables into every later small request (see sizeclass.go
// for the class discipline). contractRange resets every entry it sets to -1
// before returning, so a pooled table is clean by construction and only first
// use (or growth) pays the fill.
var posPools SizedPool[[]int32]

func getPosTable(n int) *[]int32 {
	p := posPools.Get(n)
	if cap(*p) < n {
		*p = make([]int32, n)
		for i := range *p {
			(*p)[i] = -1
		}
	}
	*p = (*p)[:cap(*p)]
	return p
}

func putPosTable(p *[]int32) { posPools.Put(p, cap(*p)) }

// ContractP builds the coarse graph induced by a vertex mapping. cmap[v]
// gives the coarse vertex of fine vertex v and must be dense in
// [0, ncoarse). Coarse vertex weights are the per-constraint sums of their
// fine vertices; coarse edge weights are the sums of fine edge weights
// between the two coarse endpoints. Fine edges internal to a coarse vertex
// disappear. The row assembly is sharded over the pool's workers (a nil pool
// runs it serially). Every coarse vertex's weight and adjacency row depend
// only on its own fine vertices, so shards write disjoint state and the
// merged result is bit-identical to the serial contraction for any pool
// width. The coarse
// graph's arrays are drawn from the word pool (GetWords); its caller owns it
// and may Release it once nothing reads it.
func (g *Graph) ContractP(cmap []int32, ncoarse int, pool *Pool) *Graph {
	cg := &Graph{
		NCon: g.NCon,
		VWgt: GetWords(ncoarse * g.NCon),
		Xadj: GetWords(ncoarse + 1),
	}
	cg.Xadj[0] = 0
	// Group fine vertices by coarse vertex for cache-friendly assembly.
	order, starts := groupByCoarse(cmap, ncoarse)

	bounds := pool.Bounds(ncoarse, 1024)
	nshards := len(bounds) - 1
	type rows struct{ adj, wgt []int32 }
	outs := make([]rows, nshards)
	pool.RunN(nshards, func(s int) {
		adj, wgt := g.contractRange(cg, cmap, order, starts, bounds[s], bounds[s+1])
		outs[s] = rows{adj, wgt}
	})
	PutWords(order)
	PutWords(starts)

	// contractRange left per-row lengths in Xadj[cv+1]; prefix-sum them into
	// offsets, then copy the shard rows (contiguous per shard) into place at
	// exact size and return the shard buffers.
	for cv := 0; cv < ncoarse; cv++ {
		cg.Xadj[cv+1] += cg.Xadj[cv]
	}
	total := int(cg.Xadj[ncoarse])
	cg.Adjncy = GetWords(total)
	cg.AdjWgt = GetWords(total)
	pool.RunN(nshards, func(s int) {
		off := cg.Xadj[bounds[s]]
		copy(cg.Adjncy[off:], outs[s].adj)
		copy(cg.AdjWgt[off:], outs[s].wgt)
		PutWords(outs[s].adj)
		PutWords(outs[s].wgt)
	})
	return cg
}

// contractRange assembles coarse vertices [lo, hi) in one scan of their fine
// rows. It accumulates their weights into cg.VWgt, records each row's length
// in cg.Xadj[cv+1], and returns the rows laid back to back in pooled buffers
// sized by the range's fine edge count, an upper bound; ContractP copies
// them once into the exact-size coarse arrays. An entry is laid where a
// neighbour is first seen and later fine edges to the same coarse neighbour
// add to its weight through the position table, so every row keeps its
// first-seen adjacency order. Once a row is laid its own entries reset the
// table, which is clean again when the range is done.
func (g *Graph) contractRange(cg *Graph, cmap, order, starts []int32, lo, hi int) (adj, wgt []int32) {
	posBuf := getPosTable(len(cg.Xadj) - 1)
	defer putPosTable(posBuf)
	pos := *posBuf

	bound := len(g.Adjncy)
	if hi-lo < len(cg.Xadj)-1 {
		bound = 0
		for _, v := range order[starts[lo]:starts[hi]] {
			bound += int(g.Xadj[v+1] - g.Xadj[v])
		}
	}
	adj, wgt = GetWords(bound), GetWords(bound)
	ncon := g.NCon
	xadj, adjncy, adjwgt := g.Xadj, g.Adjncy, g.AdjWgt
	k := 0
	for cv := lo; cv < hi; cv++ {
		row := k
		vw := cg.VWgt[cv*ncon : (cv+1)*ncon]
		clear(vw)
		for _, v := range order[starts[cv]:starts[cv+1]] {
			for c, w := range g.VWgt[int(v)*ncon : (int(v)+1)*ncon] {
				vw[c] += w
			}
			for i := xadj[v]; i < xadj[v+1]; i++ {
				cu := cmap[adjncy[i]]
				if int(cu) == cv {
					continue
				}
				if p := pos[cu]; p < 0 {
					pos[cu] = int32(k)
					adj[k] = cu
					wgt[k] = adjwgt[i]
					k++
				} else {
					wgt[p] += adjwgt[i]
				}
			}
		}
		for _, cu := range adj[row:k] {
			pos[cu] = -1
		}
		cg.Xadj[cv+1] = int32(k - row)
	}
	return adj[:k], wgt[:k]
}

// groupByCoarse returns fine vertices ordered by their coarse vertex, each
// group in ascending fine id, plus the CSR-style starts array (len
// ncoarse+1). Both are drawn from the word pool; the caller returns them.
func groupByCoarse(cmap []int32, ncoarse int) (order []int32, starts []int32) {
	starts = GetWords(ncoarse + 1)
	clear(starts)
	for _, cv := range cmap {
		starts[cv+1]++
	}
	for i := 1; i <= ncoarse; i++ {
		starts[i] += starts[i-1]
	}
	// Placing a fine vertex advances its group's start; once every vertex is
	// placed, starts[cv] holds group cv+1's start, and one shift restores it.
	order = GetWords(len(cmap))
	for v, cv := range cmap {
		order[starts[cv]] = int32(v)
		starts[cv]++
	}
	copy(starts[1:], starts[:ncoarse])
	starts[0] = 0
	return order, starts
}

// Subgraph extracts the induced subgraph over the given vertices (which must
// be distinct). It returns the subgraph and the mapping from subgraph vertex
// index to original vertex id.
func (g *Graph) Subgraph(vertices []int32) (*Graph, []int32) {
	sg, _ := g.SubgraphWith(vertices, nil)
	orig := make([]int32, len(vertices))
	copy(orig, vertices)
	return sg, orig
}

// Scratch holds reusable buffers for repeated graph extractions. A zero
// Scratch is ready to use; buffers grow on demand and are restored to their
// clean state before each call returns, so one Scratch can serve any number
// of sequential SubgraphWith calls on graphs up to its high-water size. A
// Scratch must not be shared between concurrent callers.
type Scratch struct {
	local []int32 // global vertex id -> local index, -1 when unset
}

// Cap returns the number of global vertex ids the scratch currently covers.
// Pooled callers use it to file the scratch under its size class.
func (s *Scratch) Cap() int { return len(s.local) }

// SubgraphWith is Subgraph backed by caller-provided scratch (nil allocates
// fresh buffers). Unlike Subgraph it returns the input slice itself as the
// index→id mapping instead of a copy; the caller owns both and may reuse the
// slice once the mapping is no longer needed. The subgraph's arrays are
// drawn from the word pool (GetWords); the caller may Release it once
// nothing reads it.
func (g *Graph) SubgraphWith(vertices []int32, sc *Scratch) (*Graph, []int32) {
	n := len(vertices)
	if sc == nil {
		sc = &Scratch{}
	}
	if len(sc.local) < g.NumVertices() {
		sc.local = make([]int32, g.NumVertices())
		for i := range sc.local {
			sc.local[i] = -1
		}
	}
	local := sc.local
	for i, v := range vertices {
		local[v] = int32(i)
	}
	sg := &Graph{
		NCon: g.NCon,
		Xadj: GetWords(n + 1),
		VWgt: GetWords(n * g.NCon),
	}
	sg.Xadj[0] = 0
	edgeCap := 0
	for _, v := range vertices {
		edgeCap += int(g.Xadj[v+1] - g.Xadj[v])
	}
	adj := GetWords(edgeCap)[:0]
	wgt := GetWords(edgeCap)[:0]
	for i, v := range vertices {
		copy(sg.VWgt[i*g.NCon:(i+1)*g.NCon], g.WeightVec(v))
		for j := g.Xadj[v]; j < g.Xadj[v+1]; j++ {
			if lu := local[g.Adjncy[j]]; lu >= 0 {
				adj = append(adj, lu)
				wgt = append(wgt, g.AdjWgt[j])
			}
		}
		sg.Xadj[i+1] = int32(len(adj))
	}
	sg.Adjncy = adj
	sg.AdjWgt = wgt
	for _, v := range vertices {
		local[v] = -1
	}
	return sg, vertices
}
