package partition

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"tempart/internal/graph"
	"tempart/internal/mesh"
)

func TestPartitionKWayGrid(t *testing.T) {
	g := graph.Grid(24, 24)
	for _, k := range []int{4, 7, 16} {
		r, err := PartitionKWay(context.Background(), g, k, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Validate(g); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if imb := r.MaxImbalance(); imb > 1.25 {
			t.Errorf("k=%d: imbalance %.3f", k, imb)
		}
		if r.EdgeCut <= 0 {
			t.Errorf("k=%d: zero cut for nontrivial split", k)
		}
	}
}

func TestPartitionKWayDegenerate(t *testing.T) {
	g := graph.Grid(3, 3)
	r, err := PartitionKWay(context.Background(), g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeCut != 0 {
		t.Error("k=1 should have zero cut")
	}
	// More parts than vertices.
	r, err = PartitionKWay(context.Background(), g, 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Part) != 9 {
		t.Error("degenerate spread failed")
	}
	if _, err := PartitionKWay(context.Background(), g, 0, Options{}); err == nil {
		t.Error("accepted k=0")
	}
}

func TestOptionsMethodDispatch(t *testing.T) {
	g := graph.Grid(16, 16)
	rb, err := Partition(context.Background(), g, 8, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	kw, err := Partition(context.Background(), g, 8, Options{Seed: 2, Method: DirectKWay})
	if err != nil {
		t.Fatal(err)
	}
	if err := kw.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Both valid; methods generally differ in assignment.
	if rb.NumParts != kw.NumParts {
		t.Error("part counts differ")
	}
}

func TestKWayMultiConstraintBalance(t *testing.T) {
	m := mesh.Cylinder(0.001)
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	r, err := PartitionKWay(context.Background(), g, 8, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	census := m.Census()
	for c, v := range r.Imbalance() {
		perPart := float64(census[c]) / 8
		if v > 1.5+4.0/perPart {
			t.Errorf("k-way level %d imbalance %.2f", c, v)
		}
	}
}

// TestKWayRefineImprovesCut: climbing from a round-robin assignment, which
// cuts nearly every edge, must cut far less and keep balance.
func TestKWayRefineImprovesCut(t *testing.T) {
	g := graph.Grid(20, 20)
	part := make([]int32, g.NumVertices())
	for i := range part {
		part[i] = int32(i % 4)
	}
	before := ComputeEdgeCut(g, part)
	r, err := NewRefiner(g, part, 4, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Begin(g, part); err != nil {
		t.Fatal(err)
	}
	r.Climb(context.Background(), 8)
	after := ComputeEdgeCut(g, part)
	if after >= before*3/4 {
		t.Errorf("climbing cut %d -> %d", before, after)
	}
	res := NewResult(g, part, 4)
	if imb := res.MaxImbalance(); imb > 1.3 {
		t.Errorf("refinement broke balance: %.2f", imb)
	}
}

func TestRefineKWayOriginWithoutPenalty(t *testing.T) {
	// A nil MovePenalty alongside Origin means zero bias, not an error:
	// repart relies on this when the migration penalty is disabled.
	g := graph.Grid(12, 12)
	part := make([]int32, g.NumVertices())
	for i := range part {
		part[i] = int32(i % 3)
	}
	origin := make([]int32, len(part))
	copy(origin, part)
	if err := refineFresh(context.Background(), g, part, 3, RefineOptions{}, origin, nil); err != nil {
		t.Fatalf("refinement with a nil penalty: %v", err)
	}
	if err := NewResult(g, part, 3).Validate(g); err != nil {
		t.Fatal(err)
	}
	// Length mismatches are still rejected.
	if err := refineFresh(context.Background(), g, part, 3, RefineOptions{}, origin[:1], nil); err == nil {
		t.Error("accepted short origin")
	}
	if err := refineFresh(context.Background(), g, part, 3, RefineOptions{}, origin, []int64{1}); err == nil {
		t.Error("accepted short penalty")
	}
	if err := refineFresh(context.Background(), g, part[:1], 3, RefineOptions{}, nil, nil); err == nil {
		t.Error("accepted a short assignment")
	}
}

func TestMethodString(t *testing.T) {
	if RecursiveBisection.String() != "rb" || DirectKWay.String() != "kway" {
		t.Error("method labels wrong")
	}
}

func TestSFCPartitionBalanced(t *testing.T) {
	m := mesh.Cube(0.1)
	r, err := SFCPartition(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.SingleCost})
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if imb := r.MaxImbalance(); imb > 1.2 {
		t.Errorf("SFC cost imbalance %.3f, want near 1 (curve cuts are exact)", imb)
	}
	if _, err := SFCPartition(m, 0); err == nil {
		t.Error("accepted k=0")
	}
}

func TestSFCLocality(t *testing.T) {
	// SFC domains should have a far lower edge cut than a random assignment
	// of the same sizes (locality of the curve).
	m := mesh.Cube(0.1)
	r, err := SFCPartition(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.SingleCost})
	random := make([]int32, m.NumCells())
	for i := range random {
		random[i] = int32(i % 8)
	}
	if rc := ComputeEdgeCut(g, random); r.EdgeCut >= rc/2 {
		t.Errorf("SFC cut %d not clearly below random-ish cut %d", r.EdgeCut, rc)
	}
}

// TestHilbertCurveIsBijective: distinct coarse coordinates map to distinct
// indices, and the curve visits neighbours: consecutive indices decode to
// nearby points (we check injectivity only, which catches interleaving and
// transform bugs).
func TestHilbertCurveIsBijective(t *testing.T) {
	const order = 3 // 8^3 = 512 points
	seen := map[uint64][3]uint32{}
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			for z := uint32(0); z < 8; z++ {
				idx := hilbert3D(x, y, z, order)
				if idx >= 512 {
					t.Fatalf("index %d out of range for order 3", idx)
				}
				if prev, dup := seen[idx]; dup {
					t.Fatalf("collision: %v and %v both map to %d", prev, [3]uint32{x, y, z}, idx)
				}
				seen[idx] = [3]uint32{x, y, z}
			}
		}
	}
	// Continuity: consecutive indices are unit-distance apart on the grid.
	for i := uint64(0); i+1 < 512; i++ {
		a, b := seen[i], seen[i+1]
		d := absDiff(a[0], b[0]) + absDiff(a[1], b[1]) + absDiff(a[2], b[2])
		if d != 1 {
			t.Fatalf("curve jumps from %v to %v (L1 distance %d)", a, b, d)
		}
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// Property: every k-way method yields a complete valid partition.
func TestKWayValidProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		g := graph.Grid(10+int(seed%7+7)%7, 12)
		k := 2 + int(kRaw%6)
		r, err := PartitionKWay(context.Background(), g, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		return r.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// newTestRand avoids importing math/rand at every call site in tests.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
