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
// penalties of g — the residual step of refineWarm hands over both. Every
// diffusion move goes through r's table, so the polish continues on it. A
// nil r (Diffuse mode) makes diffuse take a refiner, lay its table and
// compute the penalties itself.
func diffuse(ctx context.Context, g *graph.Graph, part []int32, k int, opt Options, r *partition.Refiner, pen []int64) error {
	span := obs.StartSpan(ctx, "repart/diffuse")
	defer span.End()
	if r == nil {
		var err error
		if r, err = partition.NewRefiner(g, part, k, refineOptions(opt)); err != nil {
			return err
		}
		defer r.Close()
		if err := r.Begin(g, part); err != nil {
			return err
		}
		pen = penalties(g, opt)
	}
	origin := pooledCopy(part) // pre-diffusion homes, so the polish can send cells back
	defer graph.PutWords(origin)

	if _, ok := diffuseSweeps(ctx, r, g, part, k, pen, opt.Part.Seed, sweepSkips{interior: true, relief: !slices.ContainsFunc(g.VWgt, negative)}); !ok {
		return nil
	}

	// Repair the cut the diffusion tore open, without sacrificing balance.
	return r.Refine(ctx, origin, pen)
}

// refineOptions are the refiner settings of opt.
func refineOptions(opt Options) partition.RefineOptions {
	return partition.RefineOptions{
		ImbalanceTol: opt.Part.ImbalanceTol,
		Passes:       opt.Part.RefinePasses,
		Parallelism:  opt.Part.Parallelism,
	}
}

// sweepScratch holds diffuseSweeps' working arrays: each part's overage,
// the edge weight of the cell under scan into each part, the parts it
// touches, and the visit order.
type sweepScratch struct {
	over, conn     []int64
	touched, order []int32
}

// sweepScratches is size-classed by the visit order's capacity.
var sweepScratches graph.SizedPool[sweepScratch]

// sweepSkips selects the cells diffuseSweeps passes over before scanning
// their adjacency, and sweepSkipped counts the visits each skip passed over.
type sweepSkips struct{ interior, relief bool }

type sweepSkipped struct{ interior, relief int }

// diffuseSweeps moves cells of overloaded parts to adjacent parts in place,
// sweep by sweep, through r, whose table is live on (g, part): it reads r's
// caps and part weights, and r.Move keeps both current. It returns how many
// cell visits each skip passed over, and false when ctx was cancelled.
//
// With skip.interior set it passes over a cell without a neighbour in
// another part (r.Boundary): the only part it touches is its own, so it has
// no candidate target. With skip.relief set it passes over a cell that
// carries no weight in any constraint on which its part is over the cap:
// moving it leaves its part's overage as it is and cannot lower the
// target's, so the move fails both the decrease and the levelling test
// below. That holds only when no vertex weight is negative, which the
// caller checks.
func diffuseSweeps(ctx context.Context, r *partition.Refiner, g *graph.Graph, part []int32, k int, pen []int64, seed int64, skip sweepSkips) (skipped sweepSkipped, ok bool) {
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
	conn := slices.Grow(sc.conn[:0], k)[:k]
	clear(conn)
	sc.over, sc.conn = over, conn

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

	touched := sc.touched[:0]
	defer func() {
		sc.touched = touched
		sweepScratches.Put(sc, cap(sc.order))
	}()
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
			if skip.interior && !r.Boundary(v) {
				skipped.interior++
				continue
			}
			wv := g.WeightVec(v)
			fw := pw[int(from)*ncon : int(from+1)*ncon]
			if skip.relief && !relieves(fw, wv, caps) {
				skipped.relief++
				continue
			}
			touched = touched[:0]
			for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
				p := part[g.Adjncy[i]]
				if conn[p] == 0 {
					touched = append(touched, p)
				}
				conn[p] += int64(g.AdjWgt[i])
			}
			var best int32 = -1
			var bestOverDelta, bestGain int64
			for _, to := range touched {
				if to == from {
					continue
				}
				var overToNew, overFromNew int64
				tw := pw[int(to)*ncon:]
				for c := 0; c < ncon; c++ {
					if d := tw[c] + int64(wv[c]) - caps[c]; d > 0 {
						overToNew += d
					}
					if d := fw[c] - int64(wv[c]) - caps[c]; d > 0 {
						overFromNew += d
					}
				}
				overTo := over[to]
				overDelta := (overToNew + overFromNew) - (overTo + overFrom)
				if overDelta > 0 {
					continue // never worsen total overage
				}
				if overDelta == 0 && maxI64(overFromNew, overToNew) >= maxI64(overFrom, overTo) {
					// Neutral moves are admitted only as "levelling": the
					// pair's larger overage must strictly shrink. That lets
					// excess percolate through saturated parts toward distant
					// spare capacity (a strict-decrease rule dead-ends as soon
					// as every neighbour sits at its cap) and still
					// terminates — each levelling move lexicographically
					// shrinks the sorted per-part overage vector.
					continue
				}
				gain := conn[to] - conn[from]
				if best < 0 || overDelta < bestOverDelta ||
					(overDelta == bestOverDelta && gain > bestGain) {
					best, bestOverDelta, bestGain = to, overDelta, gain
				}
			}
			if best >= 0 {
				r.Move(v, best)
				over[from], over[best] = overOf(from), overOf(best)
				moves++
			}
			for _, p := range touched {
				conn[p] = 0
			}
		}
		if moves == 0 {
			break
		}
	}
	return skipped, true
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

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
