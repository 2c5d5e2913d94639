package repart

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tempart/internal/graph"
	"tempart/internal/mesh"
	"tempart/internal/partition"
)

// skewedGrid is an nx×ny grid with ncon vertex weights drawn from [vlo, 3]
// and edge weights from 1..9, and an assignment to k stripes of which the
// first holds a third of the cells, so diffusion has overload to move.
func skewedGrid(t *testing.T, nx, ny, ncon, k int, vlo int32) (*graph.Graph, []int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(nx*ny+ncon) + int64(vlo)))
	b := graph.NewBuilder(ncon)
	w := make([]int32, ncon)
	for i := 0; i < nx*ny; i++ {
		for c := range w {
			w[c] = vlo + rng.Int31n(4-vlo)
		}
		b.AddVertex(w...)
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			v := int32(i*ny + j)
			if j+1 < ny {
				b.AddEdge(v, v+1, 1+rng.Int31n(9))
			}
			if i+1 < nx {
				b.AddEdge(v, v+int32(ny), 1+rng.Int31n(9))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := nx * ny
	part := make([]int32, n)
	for v := range part {
		if v >= n/3 {
			part[v] = 1 + int32((v-n/3)*(k-1)/(n-n/3))
		}
	}
	return g, part
}

// scanSweeps is the diffusion sweeps by adjacency scan, the reference the
// row-fed diffuseSweeps must equal: part weights of its own, no skip, and
// for every cell of an overloaded part, in diffuseSweeps' visit order, its
// edge weight into each part it touches summed from its adjacency and the
// move chosen by the same rule — lowest overage change, then highest cut
// gain, then the part that follows its own most closely in cyclic id order
// — among the moves that lower the total overage or level the pair's. The touched parts come from a map, so only the rule,
// not an iteration order, can make the result deterministic.
func scanSweeps(g *graph.Graph, part []int32, k int, caps, pen []int64, seed int64) {
	n, ncon := g.NumVertices(), g.NCon
	pw := flatPartWeights(g, part, k)
	overOf := func(p int32, d int64, wv []int32) int64 {
		var over int64
		for c := 0; c < ncon; c++ {
			over += max(pw[int(p)*ncon+c]+d*int64(wv[c])-caps[c], 0)
		}
		return over
	}
	order := partition.Perm(make([]int32, n), rand.New(rand.NewSource(seed)))
	if pen != nil {
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(pen[a], pen[b]) })
	}
	for sweep := 0; sweep < 32; sweep++ {
		moves := 0
		for _, v := range order {
			from, wv := part[v], g.WeightVec(v)
			overFrom := overOf(from, 0, wv)
			if overFrom == 0 {
				continue
			}
			conn := map[int32]int64{}
			for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
				conn[part[g.Adjncy[i]]] += int64(g.AdjWgt[i])
			}
			overFromNew := overOf(from, -1, wv)
			var best int32 = -1
			var bestDelta, bestGain int64
			for to, w := range conn {
				if to == from {
					continue
				}
				overTo, overToNew := overOf(to, 0, wv), overOf(to, 1, wv)
				delta := overToNew + overFromNew - overTo - overFrom
				if delta > 0 || delta == 0 && max(overFromNew, overToNew) >= max(overFrom, overTo) {
					continue
				}
				gain := w - conn[from]
				if best < 0 || delta < bestDelta || delta == bestDelta && (gain > bestGain || gain == bestGain && (to-from+int32(k))%int32(k) < (best-from+int32(k))%int32(k)) {
					best, bestDelta, bestGain = to, delta, gain
				}
			}
			if best < 0 {
				continue
			}
			for c, w := range wv {
				pw[int(from)*ncon+c] -= int64(w)
				pw[int(best)*ncon+c] += int64(w)
			}
			part[v] = best
			moves++
		}
		if moves == 0 {
			return
		}
	}
}

// TestDiffuseSkipMatchesFull: the row-fed diffusion sweeps move exactly the
// cells the adjacency-scan reference (scanSweeps) moves, with the relief
// skip on and off, so a cell the sweeps pass over had no admissible move.
// The inputs are the drift fixture at two shifts, with and without
// migration penalties, and skewed grids with one and three constraints;
// the interior and the relief skip must both fire on each. On grids with
// negative vertex weights diffuse must turn the relief skip off and still
// equal the reference, and forcing the skip on must change the result on
// at least one of them: the switch is needed.
func TestDiffuseSkipMatchesFull(t *testing.T) {
	type input struct {
		name string
		g    *graph.Graph
		part []int32
		k    int
		pen  []int64
	}
	var inputs []input
	for _, shift := range []float64{0.05, 0.3} {
		m, old := driftedCylinder(t, 0.002, 16, shift)
		g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
		for _, penalty := range []float64{0, -1} {
			pen := penalties(g, Options{MigrationPenalty: penalty, MigBytes: MeshMigrationBytes(m)}.withDefaults())
			inputs = append(inputs, input{fmt.Sprintf("cylinder-shift%g-penalty%g", shift, penalty), g, old.Part, 16, pen})
		}
	}
	for _, ncon := range []int{1, 3} {
		g, part := skewedGrid(t, 50, 50, ncon, 8, 0)
		inputs = append(inputs, input{fmt.Sprintf("grid-ncon%d", ncon), g, part, 8, nil})
	}
	var negatives []input
	for _, ncon := range []int{1, 3} {
		g, part := skewedGrid(t, 50, 50, ncon, 8, -2)
		negatives = append(negatives, input{fmt.Sprintf("grid-ncon%d-negative-weights", ncon), g, part, 8, nil})
	}

	// sweep runs the sweeps as diffuse does with default options (seed 0),
	// on a refiner of their own, and checks that every move went through its
	// table: the refiner's part weights are those of the swept assignment.
	sweep := func(in input, relief bool) ([]int32, sweepSkipped) {
		part := slices.Clone(in.part)
		r := beginRefiner(t, in.g, part, in.k)
		defer r.Close()
		skipped, ok := diffuseSweeps(context.Background(), r, in.g, part, in.k, in.pen, 0, relief)
		if !ok {
			t.Fatal("sweeps cancelled")
		}
		if got, want := r.PartWeights(), flatPartWeights(in.g, part, in.k); !slices.Equal(got, want) {
			t.Fatalf("the refiner's part weights %v after the sweeps, the swept assignment's %v", got, want)
		}
		return part, skipped
	}
	reference := func(in input) []int32 {
		part := slices.Clone(in.part)
		r := beginRefiner(t, in.g, part, in.k)
		caps := slices.Clone(r.Caps())
		r.Close()
		scanSweeps(in.g, part, in.k, caps, in.pen, 0)
		return part
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			if slices.ContainsFunc(in.g.VWgt, negative) {
				t.Fatal("input has a negative vertex weight")
			}
			want := reference(in)
			for _, relief := range []bool{false, true} {
				got, skipped := sweep(in, relief)
				if !slices.Equal(got, want) {
					t.Fatalf("relief skip %v: the row-fed sweeps differ from the adjacency scan at %d cells", relief, diffCells(got, want))
				}
				moved := diffCells(want, in.part)
				if skipped.interior == 0 || relief && skipped.relief == 0 || moved == 0 {
					t.Fatalf("relief skip %v: %+v cell visits skipped, %d cells moved: nothing was compared", relief, skipped, moved)
				}
				t.Logf("relief skip %v: %d cells moved, %+v cell visits skipped", relief, moved, skipped)
			}
		})
	}
	diverged := 0
	for _, in := range negatives {
		t.Run(in.name, func(t *testing.T) {
			if !slices.ContainsFunc(in.g.VWgt, negative) {
				t.Fatal("input has no negative vertex weight")
			}
			full := reference(in)
			if got, _ := sweep(in, false); !slices.Equal(got, full) {
				t.Fatalf("the row-fed sweeps differ from the adjacency scan at %d cells", diffCells(got, full))
			}
			forced, _ := sweep(in, true)
			if d := diffCells(forced, full); d > 0 {
				diverged++
				t.Logf("forcing the skip changes %d cells", d)
			}
			// diffuse itself must not skip a cell its part could shed: its
			// result is the reference sweeps followed by the same unbiased
			// polish.
			got := slices.Clone(in.part)
			r := beginRefiner(t, in.g, got, in.k)
			err := diffuse(context.Background(), in.g, got, in.k, Options{MigrationPenalty: -1}.withDefaults(), r, nil)
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			r = beginRefiner(t, in.g, full, in.k)
			err = r.Refine(context.Background(), in.part, nil, polishPasses)
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			if d := diffCells(got, full); d > 0 {
				t.Fatalf("diffuse differs from the reference sweeps and polish at %d cells", d)
			}
		})
	}
	if diverged == 0 {
		t.Error("forcing the skip on the negative-weight grids changed nothing: they do not show why diffuse turns it off")
	}
}

// beginRefiner returns a refiner at the default options with its table laid
// on (g, part).
func beginRefiner(t *testing.T, g *graph.Graph, part []int32, k int) *partition.Refiner {
	t.Helper()
	r, err := partition.NewRefiner(g, part, k, refineOptions(Options{}.withDefaults()))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(g, part); err != nil {
		t.Fatal(err)
	}
	return r
}

// flatPartWeights returns part's weight on constraint c at p·NCon + c.
func flatPartWeights(g *graph.Graph, part []int32, k int) []int64 {
	pw := make([]int64, k*g.NCon)
	for v, p := range part {
		for c, w := range g.WeightVec(int32(v)) {
			pw[int(p)*g.NCon+c] += int64(w)
		}
	}
	return pw
}

func diffCells(a, b []int32) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
