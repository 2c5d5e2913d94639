package partition

import (
	"context"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// recursiveBisect assigns the given (global-id) vertices of g to parts
// [firstPart, firstPart+k) by multilevel recursive bisection, writing the
// assignment into part. The paper uses recursive bisection rather than
// direct k-way because it yields higher-quality multi-constraint partitions
// on these meshes. On cancellation the remaining vertices are bulk-assigned
// so the array stays well formed; the caller turns ctx.Err() into an error.
//
// seed is this node's RNG seed; child seeds are derived from it and the
// child's (firstPart, k) address (see deriveSeed), so every subtree's random
// stream is a pure function of the root seed and the subtree's position in
// the bisection tree. After the split, the two subtrees share no state —
// they recurse on disjoint halves of the vertices buffer and write disjoint
// entries of part — so they fan out onto the worker pool, and the result is
// bit-identical to serial execution no matter how the pool schedules them.
//
// vertices is consumed: it is repartitioned in place so the recursion reuses
// one buffer per tree path instead of append-growing fresh left/right slices
// at every node.
func recursiveBisect(ctx context.Context, g *graph.Graph, vertices []int32, firstPart, k int, part []int32, opt Options, seed int64, pool *graph.Pool) {
	if done := commitBaseCase(ctx, vertices, firstPart, k, part); done {
		return
	}
	left, right := bisectNode(ctx, g, SubtreeTask{Vertices: vertices, FirstPart: firstPart, K: k, Seed: seed}, opt, pool)
	pool.Fork(
		func() {
			recursiveBisect(ctx, g, left.Vertices, left.FirstPart, left.K, part, opt, left.Seed, pool)
		},
		func() {
			recursiveBisect(ctx, g, right.Vertices, right.FirstPart, right.K, part, opt, right.Seed, pool)
		},
	)
}

// isIdentity reports whether vertices is exactly [0, 1, ..., len-1].
func isIdentity(vertices []int32) bool {
	for i, v := range vertices {
		if v != int32(i) {
			return false
		}
	}
	return true
}

// commitBaseCase handles the leaves of the bisection tree (k == 1,
// cancellation, or fewer vertices than parts), writing the assignment into
// part and reporting whether the node was a leaf. The exact same base cases
// apply whether a node is reached by local recursion or handed to a remote
// peer as a subtree task — keeping the two paths byte-identical.
func commitBaseCase(ctx context.Context, vertices []int32, firstPart, k int, part []int32) bool {
	if k <= 1 || ctx.Err() != nil {
		for _, v := range vertices {
			part[v] = int32(firstPart)
		}
		return true
	}
	if len(vertices) <= k {
		// Degenerate: fewer vertices than parts; spread them out.
		for i, v := range vertices {
			part[v] = int32(firstPart + i%k)
		}
		return true
	}
	return false
}

// bisectNode performs exactly one interior node's bisection — subgraph
// extraction, multilevel 2-way split, in-place stable partition of the
// vertex buffer — and returns the two child subtree tasks with their derived
// seeds. Callers guarantee the node is not a base case. The computation is a
// pure function of (g, vertices content, seed, opt): it never reads
// scheduling state, which is what lets a coordinator run the top of the tree
// locally, ship the frontier to peers, and still match the local partition
// byte for byte.
func bisectNode(ctx context.Context, g *graph.Graph, t SubtreeTask, opt Options, pool *graph.Pool) (left, right SubtreeTask) {
	k1 := t.K / 2
	frac := float64(k1) / float64(t.K)

	sc := getScratch(len(t.Vertices))
	rng := sc.seeded(t.Seed)
	sspan := obs.StartSpan(ctx, "partition/subgraph")
	var sg *graph.Graph
	var orig []int32
	built := false // sg was extracted here, and is released here
	if len(t.Vertices) == g.NumVertices() && isIdentity(t.Vertices) {
		// Root node (or root of a subtree covering the whole graph): the
		// extracted subgraph would be byte-for-byte g itself — the identity
		// mapping keeps adjacency order and drops no edges — so skip the
		// wholesale CSR copy. At paper scale that copy would be the single
		// largest live object of the root's coarsening.
		sg, orig = g, t.Vertices
	} else {
		// The local-id table is sized by the GLOBAL vertex count, so it is
		// pooled separately from the node-sized scratch arena (see gscPools).
		gsc := getGraphScratch(g.NumVertices())
		sg, orig = g.SubgraphWith(t.Vertices, gsc) // orig aliases t.Vertices
		putGraphScratch(gsc)
		built = true
	}
	if sspan.Active() {
		sspan.SetInt("vertices", int64(len(t.Vertices)))
	}
	sspan.End()
	where := bisectGraph(ctx, sg, frac, opt, rng, pool, sc)

	// Stable-partition vertices in place: side-0 vertices slide left (always
	// to an index ≤ the one being read, so aliasing orig is safe), side-1
	// vertices spill to scratch and are copied back after.
	vertices := t.Vertices
	nleft := 0
	for _, w := range where {
		if w == 0 {
			nleft++
		}
	}
	spill := growI32(sc.split, len(vertices)-nleft)
	li, ri := 0, 0
	for i, w := range where {
		if w == 0 {
			vertices[li] = orig[i]
			li++
		} else {
			spill[ri] = orig[i]
			ri++
		}
	}
	copy(vertices[nleft:], spill)
	sc.split = spill
	// The node's hierarchy is done: its subgraph and assignment go back to
	// the word pool for the children to build theirs from.
	graph.PutWords(where)
	if built {
		sg.Release()
	}
	putScratch(sc) // children fetch their own arenas

	left = SubtreeTask{
		Vertices:  vertices[:nleft],
		FirstPart: t.FirstPart,
		K:         k1,
		Seed:      deriveSeed(t.Seed, t.FirstPart, k1),
	}
	right = SubtreeTask{
		Vertices:  vertices[nleft:],
		FirstPart: t.FirstPart + k1,
		K:         t.K - k1,
		Seed:      deriveSeed(t.Seed, t.FirstPart+k1, t.K-k1),
	}
	return left, right
}

// rootBisect is bisectNode specialized to the tree root, where the vertex set
// is the identity [0..n). It defers materializing the n-word vertex buffer
// until after bisectGraph returns: the buffer is dead weight during the
// root's coarsening. That is not the partition's peak: measured peaks are
// 2.86× the CSR bytes at Parallelism 1 and 5.00× at 4 (ROADMAP item 3),
// where concurrent subtrees each hold a subgraph and a hierarchy.
// Filling the buffer afterwards by stable-partitioning the identity over
// `where` produces exactly the bytes bisectNode's in-place partition would,
// so the children — and the final partition — are byte-identical.
func rootBisect(ctx context.Context, g *graph.Graph, k int, opt Options, pool *graph.Pool) (left, right SubtreeTask) {
	k1 := k / 2
	frac := float64(k1) / float64(k)
	n := g.NumVertices()

	sc := getScratch(n)
	rng := sc.seeded(opt.Seed)
	sspan := obs.StartSpan(ctx, "partition/subgraph")
	if sspan.Active() {
		sspan.SetInt("vertices", int64(n))
	}
	sspan.End()
	where := bisectGraph(ctx, g, frac, opt, rng, pool, sc)

	vertices := make([]int32, n)
	nleft := 0
	for _, w := range where {
		if w == 0 {
			nleft++
		}
	}
	li, ri := 0, nleft
	for i, w := range where {
		if w == 0 {
			vertices[li] = int32(i)
			li++
		} else {
			vertices[ri] = int32(i)
			ri++
		}
	}
	graph.PutWords(where)
	// The root's scratch is deliberately NOT pooled: its buffers are sized by
	// the whole graph, and ceil filing would hand them to the first child —
	// which builds a hierarchy of its own — instead of letting them die here. Children allocate half-sized arenas of their own.

	left = SubtreeTask{
		Vertices:  vertices[:nleft],
		FirstPart: 0,
		K:         k1,
		Seed:      deriveSeed(opt.Seed, 0, k1),
	}
	right = SubtreeTask{
		Vertices:  vertices[nleft:],
		FirstPart: k1,
		K:         k - k1,
		Seed:      deriveSeed(opt.Seed, k1, k-k1),
	}
	return left, right
}
