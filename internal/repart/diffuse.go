package repart

import (
	"cmp"
	"context"
	"math/rand"
	"slices"

	"tempart/internal/graph"
	"tempart/internal/obs"
	"tempart/internal/partition"
)

// diffuse is the diffusive fallback: boundary cells of overloaded parts flow
// to adjacent underloaded parts until every constraint is back under its
// cap, preferring the cells that are cheapest to migrate and least connected
// to their current part. A penalty-biased refinement pass then repairs the
// edge cut without undoing the balance. part is updated in place.
//
// r is the call's refiner with its table live on (g, part), and pen the
// penalties of g. Every diffusion move goes through r's table, so the
// polish continues on it, and the caller reads the result off it.
func diffuse(ctx context.Context, g *graph.Graph, part []int32, k int, opt Options, r *partition.Refiner, pen []int64) error {
	span := obs.StartSpan(ctx, "repart/diffuse")
	defer span.End()
	// The polish's refiner span nests under this one.
	ctx = obs.ContextWithSpan(ctx, span)
	origin := pooledCopy(part) // pre-diffusion homes, so the polish can send cells back
	defer graph.PutWords(origin)

	if _, ok := diffuseSweeps(ctx, r, g, part, k, pen, opt.Part.Seed, !slices.ContainsFunc(g.VWgt, negative)); !ok {
		return nil
	}

	// Repair the cut the diffusion tore open, without sacrificing balance.
	return r.Refine(ctx, origin, pen, polishPasses)
}

// The warm path's pass bounds below RefineOptions.Passes: the finest
// level's refinement (refineWarm) and the diffusion polish, the two stages
// that refine the whole finest graph, run at most two greedy passes. On
// the drift benchmark a finest-level pass after the second moved a few
// dozen vertices after visiting thousands; DESIGN §5.2 "Warm refinement"
// has the measured cost in cut and migration.
const (
	finestPasses = 2
	polishPasses = 2
)

// refineOptions are the refiner settings of opt.
func refineOptions(opt Options) partition.RefineOptions {
	return partition.RefineOptions{
		ImbalanceTol: opt.Part.ImbalanceTol,
		Passes:       opt.Part.RefinePasses,
		Parallelism:  opt.Part.Parallelism,
	}
}

// sweepScratch holds diffuseSweeps' working arrays: each part's overage
// and the visit order.
type sweepScratch struct {
	over  []int64
	order []int32
}

// sweepScratches is size-classed by the visit order's capacity.
var sweepScratches graph.SizedPool[sweepScratch]

// sweepSkipped counts the cell visits of overloaded parts that
// diffuseSweeps passed over without evaluating a move: interior cells, and
// cells the relief skip ruled out.
type sweepSkipped struct{ interior, relief int }

// diffuseSweeps moves cells of overloaded parts to adjacent parts in place,
// sweep by sweep, through r, whose table is live on (g, part): it reads r's
// caps and part weights, and each cell's target parts and its edge weight
// into each from the cell's connectivity row (RowLen, RowEntry), so it
// never scans adjacency; r.Move keeps all of them current. It returns how
// many cell visits it passed over, and false when ctx was cancelled.
//
// A cell without a row (an interior cell) touches its own part only, so it
// has no candidate target. With relief set it also passes over a cell that
// carries no weight in any constraint on which its part is over the cap:
// moving it leaves its part's overage as it is and cannot lower the
// target's, so the move fails both the decrease and the levelling test
// below. That holds only when no vertex weight is negative, which the
// caller checks.
func diffuseSweeps(ctx context.Context, r *partition.Refiner, g *graph.Graph, part []int32, k int, pen []int64, seed int64, relief bool) (skipped sweepSkipped, ok bool) {
	n := g.NumVertices()
	ncon := g.NCon
	caps, pw := r.Caps(), r.PartWeights()
	sc := sweepScratches.Get(n)
	overOf := func(p int32) int64 {
		var over int64
		for c, w := range pw[int(p)*ncon : int(p+1)*ncon] {
			if d := w - caps[c]; d > 0 {
				over += d
			}
		}
		return over
	}
	over := slices.Grow(sc.over[:0], k)[:k] // overOf of every part, kept current
	for p := range over {
		over[p] = overOf(int32(p))
	}
	sc.over = over

	// Sweep cells of overloaded parts in ascending migration cost so the
	// cheap state moves first (any order when the penalty is disabled and
	// pen is nil). Every move lowers the total overage, or keeps it and
	// lowers the sorted per-part overage vector lexicographically (a
	// levelling move, below). The pair (total, sorted vector) therefore only
	// falls and the sweeps end; maxSweeps bounds them regardless.
	rng := rand.New(rand.NewSource(seed))
	order := partition.Perm(slices.Grow(sc.order[:0], n)[:n], rng)
	sc.order = order
	if pen != nil {
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(pen[a], pen[b]) })
	}

	defer sweepScratches.Put(sc, cap(sc.order))
	const maxSweeps = 32
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if ctx.Err() != nil {
			return skipped, false
		}
		moves := 0
		for _, v := range order {
			from := part[v]
			overFrom := over[from]
			if overFrom == 0 {
				continue
			}
			nr := r.RowLen(v)
			if nr == 0 {
				skipped.interior++
				continue
			}
			wv := g.WeightVec(v)
			fw := pw[int(from)*ncon : int(from+1)*ncon]
			if relief && !relieves(fw, wv, caps) {
				skipped.relief++
				continue
			}
			var overFromNew int64
			for c := 0; c < ncon; c++ {
				if d := fw[c] - int64(wv[c]) - caps[c]; d > 0 {
					overFromNew += d
				}
			}
			var best int32 = -1
			var bestOverDelta, bestConn int64
			for i := 0; i < nr; i++ {
				to, w := r.RowEntry(v, i)
				var overToNew int64
				tw := pw[int(to)*ncon:]
				for c := 0; c < ncon; c++ {
					if d := tw[c] + int64(wv[c]) - caps[c]; d > 0 {
						overToNew += d
					}
				}
				overTo := over[to]
				overDelta := (overToNew + overFromNew) - (overTo + overFrom)
				if overDelta > 0 {
					continue // never worsen total overage
				}
				if overDelta == 0 && max(overFromNew, overToNew) >= max(overFrom, overTo) {
					// Neutral moves are admitted only as "levelling": the
					// pair's larger overage must strictly shrink. That lets
					// excess percolate through saturated parts toward distant
					// spare capacity (a strict-decrease rule dead-ends as soon
					// as every neighbour sits at its cap) and still
					// terminates — each levelling move lexicographically
					// shrinks the sorted per-part overage vector.
					continue
				}
				// The best target: lowest overage change, then highest cut
				// gain, then the part whose id follows from's most closely
				// (cyclicAfter) — a rule on the row's contents, not on its
				// order. The cut gain is w less v's edge weight into its own
				// part, the same for every target, so w ranks the targets
				// alike.
				if best < 0 || overDelta < bestOverDelta ||
					(overDelta == bestOverDelta && (w > bestConn || (w == bestConn && cyclicAfter(to, from, k) < cyclicAfter(best, from, k)))) {
					best, bestOverDelta, bestConn = to, overDelta, w
				}
			}
			if best >= 0 {
				r.Move(v, best)
				over[from], over[best] = overOf(from), overOf(best)
				moves++
			}
		}
		if moves == 0 {
			break
		}
	}
	return skipped, true
}

// cyclicAfter is how far part p follows part from in cyclic id order, in
// [1, k) for p ≠ from: the diffusion's last tie-break. Unlike the lowest
// part id it sends each part's ties in a different direction, so tied
// flows do not all run toward the low ids: over 12 drift chains (CYLINDER
// 0.01, k = 64, five epochs) the lowest id left 1.3 % more edge cut.
func cyclicAfter(p, from int32, k int) int32 {
	return (p - from + int32(k)) % int32(k)
}

// relieves reports whether a cell of weights wv carries weight in a
// constraint on which its part, of weights pw, is over the cap.
func relieves(pw []int64, wv []int32, caps []int64) bool {
	for c, w := range wv {
		if w > 0 && pw[c] > caps[c] {
			return true
		}
	}
	return false
}

func negative(w int32) bool { return w < 0 }
