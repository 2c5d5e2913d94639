package partition

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// Method selects the k-way construction algorithm.
type Method int

const (
	// RecursiveBisection builds the k-way partition by recursive 2-way
	// splits — the paper's choice ("it produces higher quality solutions on
	// our meshes").
	RecursiveBisection Method = iota
	// DirectKWay coarsens once, solves k-way on the coarsest graph by
	// recursive bisection, and uncoarsens with k-way FM climbs (Refiner
	// .Climb) at every level. The ablation BenchmarkAblationRBvsKWay
	// compares it with RecursiveBisection (DESIGN §4, Ablations).
	DirectKWay
)

// String implements fmt.Stringer.
func (m Method) String() string {
	if m == DirectKWay {
		return "kway"
	}
	return "rb"
}

// PartitionKWay computes a k-way partition with the direct k-way multilevel
// scheme. It honours the same Options as Partition. Cancelling ctx stops the
// construction at the next coarsening or refinement boundary.
func PartitionKWay(ctx context.Context, g *graph.Graph, k int, opt Options) (*Result, error) {
	if k < 1 {
		return nil, errBadK(k)
	}
	n := g.NumVertices()
	if k == 1 || n <= k {
		// Degenerate cases match the recursive-bisection behaviour.
		return partitionRB(ctx, g, k, opt)
	}
	opt = opt.withDefaults(g.NCon)
	rng := rand.New(rand.NewSource(opt.Seed))
	pool := graph.NewPool(opt.Parallelism)

	// Coarsen once, keeping enough coarse vertices for k parts.
	coarseTo := opt.CoarsenTo
	if min := 16 * k; coarseTo < min {
		coarseTo = min
	}
	sc := getScratch(n)
	h := coarsen(ctx, g, coarseTo, rng, pool, sc, streamFloor(opt))
	putScratch(sc)
	defer h.close()
	coarsest := h.coarsest()

	// Initial k-way on the coarsest graph via recursive bisection.
	part := make([]int32, coarsest.NumVertices())
	vertices := make([]int32, coarsest.NumVertices())
	for i := range vertices {
		vertices[i] = int32(i)
	}
	recursiveBisect(ctx, coarsest, vertices, 0, k, part, opt, opt.Seed, pool)

	// Uncoarsen with climbs at every level, on one refiner whose caps follow
	// each level's graph. Spilled interior rungs are reloaded one at a time
	// and released after their climbs.
	r, err := NewRefiner(g, nil, k, RefineOptions{ImbalanceTol: opt.ImbalanceTol, Parallelism: opt.Parallelism})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	climb := func(lg *graph.Graph, level int) {
		rspan := obs.StartSpan(ctx, "partition/refine")
		rspan.SetInt("level", int64(level))
		rspan.SetInt("vertices", int64(lg.NumVertices()))
		r.climbed = climbStats{}
		if r.Begin(lg, part) == nil {
			r.Climb(ctx, opt.RefinePasses)
		}
		r.climbed.annotate(rspan)
		rspan.End()
	}
	for li := h.levels() - 1; li >= 1; li-- {
		if ctx.Err() == nil {
			climb(h.graph(li), li)
		}
		fine := projectAssignment(h.cmap(li), part)
		graph.PutWords(part)
		part = fine
		h.release(li)
	}
	// The walk is done loading; free the read-back buffers before the
	// finest level's refinement.
	h.dropReloadBuffers()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	climb(g, 0)
	return r.Result(), nil
}

func errBadK(k int) error {
	return fmt.Errorf("partition: k = %d, want >= 1", k)
}

// kwayCapsInto writes into dst (grown as needed) the per-part
// per-constraint weight caps of a k-way partition of g (shared by all parts
// since targets are uniform): tol·ideal, raised to the feasibility floors a
// cap below ceil(ideal) (pigeonhole) or below the heaviest single vertex
// (indivisibility) would violate. Every Refiner refines to these caps, and
// the repartitioner's diffusion balances to them. Totals and per-vertex
// maxima are accumulated in stack buffers so the steady-state path stays
// allocation-free.
func kwayCapsInto(dst []int64, g *graph.Graph, k int, tol float64) []int64 {
	ncon := g.NCon
	var totArr, maxArr [8]int64
	var tot, maxV []int64
	if ncon <= len(totArr) {
		tot, maxV = totArr[:ncon], maxArr[:ncon]
	} else {
		tot, maxV = make([]int64, ncon), make([]int64, ncon)
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		row := g.VWgt[v*ncon : (v+1)*ncon]
		for c, w := range row {
			tot[c] += int64(w)
			if int64(w) > maxV[c] {
				maxV[c] = int64(w)
			}
		}
	}
	caps := growI64(dst, ncon)
	for c := range tot {
		ideal := float64(tot[c]) / float64(k)
		cap := int64(ideal * tol)
		if feasible := int64(math.Ceil(ideal - 1e-9)); feasible > cap {
			cap = feasible
		}
		if maxV[c] > cap {
			cap = maxV[c]
		}
		caps[c] = cap
	}
	return caps
}

// moveBias skews refinement gains against moving a vertex off its origin
// part: leaving origin subtracts pen[v] from the move's gain, returning to
// origin adds it back, lateral moves between two non-origin parts are
// neutral. It is how incremental repartitioning (internal/repart) expresses
// "restore balance, but migrate as little data as possible" through
// Refiner's greedy passes. The zero moveBias is "unbiased".
type moveBias struct {
	origin []int32
	pen    []int64
}

// same reports whether b and o are the same bias: the same origin and
// penalty arrays, not merely equal contents.
func (b moveBias) same(o moveBias) bool {
	return sameArray(b.origin, o.origin) && sameArray(b.pen, o.pen)
}

func sameArray[E any](a, b []E) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// delta returns the gain adjustment for moving v from part `from` to `to`.
func (b moveBias) delta(v, from, to int32) int64 {
	switch b.origin[v] {
	case from:
		return -b.pen[v]
	case to:
		return b.pen[v]
	}
	return 0
}
