package partition

import (
	"context"
	"slices"
	"testing"

	"tempart/internal/graph"
	"tempart/internal/mesh"
)

// stripedAssignment is a deliberately poor contiguous-block initial k-way
// assignment — lots of boundary for refinement to chew on.
func stripedAssignment(n, k int) []int32 {
	part := make([]int32, n)
	for i := range part {
		part[i] = int32(i * k / n)
	}
	return part
}

// TestRefineKWayDeterministicAcrossParallelism extends the determinism
// contract to the Refiner's greedy passes: the refined assignment is
// byte-identical at every Parallelism setting, biased and unbiased. Run
// under -race in CI, this also checks the concurrent candidate scans
// against the serial commit for data races.
func TestRefineKWayDeterministicAcrossParallelism(t *testing.T) {
	m := mesh.Cylinder(0.002)
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	n := g.NumVertices()
	const k = 12
	initial := stripedAssignment(n, k)
	origin := append([]int32(nil), initial...)
	pen := make([]int64, n)
	for i := range pen {
		pen[i] = int64(i%3) + 1
	}
	variants := []struct {
		name string
		bias moveBias
	}{
		{"unbiased", moveBias{}},
		{"biased", moveBias{origin: origin, pen: pen}},
	}
	for _, tc := range variants {
		t.Run(tc.name, func(t *testing.T) {
			caps := kwayCaps(g, k, 1.05)
			overage := func(part []int32) int64 {
				pw := make([]int64, k*g.NCon)
				for v := 0; v < n; v++ {
					dst := pw[int(part[v])*g.NCon:]
					for c, w := range g.WeightVec(int32(v)) {
						dst[c] += int64(w)
					}
				}
				var over int64
				for p := 0; p < k; p++ {
					for c := 0; c < g.NCon; c++ {
						if d := pw[p*g.NCon+c] - caps[c]; d > 0 {
							over += d
						}
					}
				}
				return over
			}
			var ref []int32
			var refCut int64
			for _, par := range parallelismSettings {
				part := append([]int32(nil), initial...)
				opt := RefineOptions{Parallelism: par}
				if err := refineFresh(context.Background(), g, part, k, opt, tc.bias.origin, tc.bias.pen); err != nil {
					t.Fatal(err)
				}
				cut := ComputeEdgeCut(g, part)
				// The engine optimises (cap overage, cut) lexicographically:
				// it may trade a little cut for balance, never worsen both.
				if tc.name == "unbiased" {
					beforeCut, beforeOver := ComputeEdgeCut(g, initial), overage(initial)
					afterOver := overage(part)
					if afterOver > beforeOver || (afterOver == beforeOver && cut >= beforeCut) {
						t.Errorf("parallelism %d: no improvement (cut %d -> %d, overage %d -> %d)",
							par, beforeCut, cut, beforeOver, afterOver)
					}
				}
				if ref == nil {
					ref, refCut = part, cut
					continue
				}
				if cut != refCut {
					t.Errorf("parallelism %d: cut %d, serial %d", par, cut, refCut)
				}
				for i := range part {
					if part[i] != ref[i] {
						t.Fatalf("parallelism %d: vertex %d in part %d, serial says %d — refinement depends on worker count",
							par, i, part[i], ref[i])
					}
				}
			}
		})
	}
}

// TestRefineKWayRepairsImbalance: the Refiner must perform the
// balance-restoring duty repart relies on — moves that reduce cap overage
// are admissible regardless of gain. The overload sits on a shared boundary
// (like repart's warm starts after drift): chain migration through saturated
// non-adjacent parts is diffusion's job, not boundary refinement's.
func TestRefineKWayRepairsImbalance(t *testing.T) {
	g := graph.Grid(24, 24)
	n := g.NumVertices()
	const k = 4
	// Quadrant partition, then part 0 annexes a three-column band of its
	// neighbour part 1: 180 vs 144 ideal (imbalance 1.25).
	part := make([]int32, n)
	for r := 0; r < 24; r++ {
		for c := 0; c < 24; c++ {
			p := int32(0)
			if r >= 12 {
				p += 2
			}
			if c >= 12 {
				p++
			}
			if r < 12 && c >= 12 && c < 15 {
				p = 0
			}
			part[r*24+c] = p
		}
	}
	before := NewResult(g, append([]int32(nil), part...), k).MaxImbalance()
	if err := refineFresh(context.Background(), g, part, k, RefineOptions{ImbalanceTol: 1.05, Parallelism: 1}, nil, nil); err != nil {
		t.Fatal(err)
	}
	after := NewResult(g, part, k).MaxImbalance()
	if after >= before {
		t.Errorf("imbalance not reduced: %.3f -> %.3f", before, after)
	}
	if after > 1.10 {
		t.Errorf("residual imbalance %.3f, want repair to near the 1.05 cap", after)
	}
}

// TestRefineKWayAllocs pins the scratch-arena contract: after warm-up,
// steady-state k-way refinement allocates nothing — a refiner taken, its
// table laid, refined under a bias, climbed and closed again, every buffer
// (part weights, the table, the visit set, the candidate lists, the climb's
// buckets and move log) and the refiner itself come from the pooled arena.
func TestRefineKWayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses reuse under the race detector")
	}
	m := mesh.Cylinder(0.004)
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	n := g.NumVertices()
	const k = 8
	part := stripedAssignment(n, k)
	opt := RefineOptions{Parallelism: 1, Passes: 2}
	bias := testBias(part, true)
	refine := func() {
		r, err := NewRefiner(g, part, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.Begin(g, part); err != nil {
			t.Fatal(err)
		}
		if err := r.Refine(context.Background(), bias.origin, bias.pen, 0); err != nil {
			t.Fatal(err)
		}
		r.Climb(context.Background(), 2)
	}
	// Warm the pools and converge the assignment: a call that changes it
	// may try more climb moves than any before it and grow the move log.
	for i, last := 0, []int32(nil); i < 20 && !slices.Equal(last, part); i++ {
		last = slices.Clone(part)
		refine()
	}
	allocs := testing.AllocsPerRun(5, refine)
	if allocs != 0 {
		t.Errorf("steady-state refinement allocates %.1f objects/op, want 0", allocs)
	}
}
