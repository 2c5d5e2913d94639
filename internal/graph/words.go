package graph

import (
	"math"
	"unsafe"
)

// words is the one pool of int32 arrays the multilevel hierarchy is built
// from: node subgraphs (SubgraphWith), coarse graphs and their grouping
// arrays (ContractP), and the partitioner's coarsening maps and projected
// assignments. Recursive bisection releases a node's hierarchy before its
// children build theirs, and a child is about half its parent's size, so
// under the size-class discipline (sizeclass.go) the arrays one node
// releases serve the next and a partition allocates little beyond its
// first node. A waiting array is filed as a pointer to its first element,
// which holds the array's capacity, so filing and drawing allocate nothing.
var words SizedPool[int32]

// GetWords returns a slice of n int32s drawn from the pool, or a fresh one
// when no pooled array fits. Its contents are unspecified: callers write
// every element before reading it.
func GetWords(n int) []int32 {
	p := words.getFit(n, func(p *int32) int { return int(*p) })
	if p == nil {
		return make([]int32, n)
	}
	return unsafe.Slice(p, int(*p))[:n]
}

// PutWords returns s's backing array to the pool. The caller must hold the
// only reference to it: the next GetWords may hand it to anyone.
func PutWords(s []int32) {
	c := cap(s)
	if c == 0 || c > math.MaxInt32 {
		return
	}
	s = s[:c]
	s[0] = int32(c)
	words.Put(&s[0], c)
}

// Release returns the graph's arrays to the pool and zeroes g, so a stale
// reference fails fast instead of reading arrays another graph now owns.
// Only the code that built g may release it, once nothing reads g any more;
// a graph whose arrays belong to someone else (a caller's input, a
// SpillStore read-back buffer) must never be released.
func (g *Graph) Release() {
	for _, s := range [4][]int32{g.Xadj, g.Adjncy, g.AdjWgt, g.VWgt} {
		PutWords(s)
	}
	*g = Graph{}
}
