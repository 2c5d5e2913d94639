package fv

import (
	"math"
	"testing"
	"testing/quick"

	"tempart/internal/mesh"
	"tempart/internal/temporal"
)

func TestMassConservationSingleLevel(t *testing.T) {
	m := mesh.Strip([]temporal.Level{0, 0, 0, 0, 0})
	s := NewState(m, DefaultParams())
	s.InitGaussian(2.5, 0.5, 0.5, 1.0, 1.0)
	m0 := s.Mass()
	for i := 0; i < 10; i++ {
		s.RunIteration()
	}
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(s.Mass()-m0) / math.Abs(m0); rel > 1e-12 {
		t.Errorf("mass drift %.3e after 10 iterations", rel)
	}
}

func TestMassConservationMultiLevel(t *testing.T) {
	m := mesh.Cylinder(0.0005)
	s := NewState(m, DefaultParams())
	s.InitGaussian(1.0, 0.5, 0.5, 0.3, 2.0)
	m0 := s.Mass()
	for i := 0; i < 3; i++ {
		s.RunIteration()
	}
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(s.Mass()-m0) / math.Abs(m0); rel > 1e-10 {
		t.Errorf("mass drift %.3e on multi-level mesh", rel)
	}
}

func TestUniformStateIsSteady(t *testing.T) {
	// A constant field has zero diffusion flux and divergence-free advection
	// on interior faces only — with zero-flux walls, upwind advection of a
	// constant still cancels between faces only if the velocity divergence
	// is zero cell-wise, which holds on a symmetric grid interior. We check
	// the weaker invariant: mass stays exactly constant.
	m := mesh.Cube(0.02)
	s := NewState(m, DefaultParams())
	for c := range s.U {
		s.U[c] = 3.0
	}
	m0 := s.Mass()
	s.RunIteration()
	if rel := math.Abs(s.Mass()-m0) / m0; rel > 1e-12 {
		t.Errorf("uniform-state mass drift %.3e", rel)
	}
}

func TestDiffusionSmoothsPeak(t *testing.T) {
	m := mesh.Strip([]temporal.Level{0, 0, 0, 0, 0, 0, 0})
	p := Params{Velocity: [3]float64{0, 0, 0}, Diffusion: 0.3, DtBase: 0.05}
	s := NewState(m, p)
	s.U[3] = 1.0 // delta spike
	peak := func() (v float64) {
		for _, u := range s.U {
			v = max(v, math.Abs(u))
		}
		return v
	}
	peak0 := peak()
	for i := 0; i < 20; i++ {
		s.RunIteration()
	}
	if peak() >= peak0 {
		t.Errorf("diffusion did not reduce peak: %v -> %v", peak0, peak())
	}
	// Spike spreads to neighbours.
	if s.U[2] <= 0 || s.U[4] <= 0 {
		t.Errorf("diffusion did not spread: U = %v", s.U)
	}
}

func TestAdvectionMovesDownwind(t *testing.T) {
	levels := make([]temporal.Level, 20)
	m := mesh.Strip(levels)
	p := Params{Velocity: [3]float64{1, 0, 0}, Diffusion: 0, DtBase: 0.2}
	s := NewState(m, p)
	s.U[5] = 1.0
	com0 := centerOfMass(s)
	for i := 0; i < 10; i++ {
		s.RunIteration()
	}
	if com1 := centerOfMass(s); com1 <= com0 {
		t.Errorf("advection did not move mass downwind: %.3f -> %.3f", com0, com1)
	}
}

func centerOfMass(s *State) float64 {
	var num, den float64
	m := s.m
	for c := range s.U {
		w := s.U[c] * float64(m.Volume[c])
		num += w * float64(m.CX[c])
		den += w
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func TestKernelPartitionInvariance(t *testing.T) {
	// Splitting the face and cell kernels into arbitrary chunks must give
	// the same result as one big call (this is what makes task decomposition
	// valid). Same phase ordering, different groupings.
	levels := []temporal.Level{0, 0, 1, 1, 0, 0}
	mA := mesh.Strip(levels)
	mB := mesh.Strip(levels)
	sA := NewState(mA, DefaultParams())
	sB := NewState(mB, DefaultParams())
	for c := range sA.U {
		sA.U[c] = float64(c) * 0.37
		sB.U[c] = float64(c) * 0.37
	}

	// Reference: RunIteration.
	sA.RunIteration()

	// Manual: same schedule but kernels invoked per-object.
	scheme := mB.Scheme()
	facesBy := make([][]int32, scheme.NumLevels())
	cellsBy := make([][]int32, scheme.NumLevels())
	for i, f := range mB.Faces {
		l := mB.Level[f.C0]
		if !f.IsBoundary() && mB.Level[f.C1] < l {
			l = mB.Level[f.C1]
		}
		facesBy[l] = append(facesBy[l], int32(i))
	}
	for c := 0; c < mB.NumCells(); c++ {
		cellsBy[mB.Level[c]] = append(cellsBy[mB.Level[c]], int32(c))
	}
	for sub := 0; sub < scheme.NumSubiterations(); sub++ {
		for _, tau := range scheme.ActiveLevels(sub) {
			for _, f := range facesBy[tau] {
				sB.ComputeFaces([]int32{f})
			}
			for _, c := range cellsBy[tau] {
				sB.UpdateCells([]int32{c})
			}
		}
	}
	for c := range sA.U {
		if math.Abs(sA.U[c]-sB.U[c]) > 1e-13 {
			t.Fatalf("cell %d: %v vs %v", c, sA.U[c], sB.U[c])
		}
	}
}

func TestBoundaryFacesAreNoOps(t *testing.T) {
	m := mesh.Strip([]temporal.Level{0, 0})
	s := NewState(m, DefaultParams())
	s.U[0], s.U[1] = 1, 2
	var boundary []int32
	for i := m.NumInteriorFaces; i < m.NumFaces(); i++ {
		boundary = append(boundary, int32(i))
	}
	s.ComputeFaces(boundary)
	for f := range s.AccL {
		if s.AccL[f] != 0 || s.AccR[f] != 0 {
			t.Errorf("boundary face accumulated flux at face %d: %v/%v", f, s.AccL[f], s.AccR[f])
		}
	}
}

// Property: mass invariance holds for any interleaving prefix, not just
// complete iterations (the accumulator argument).
func TestMassInvariantMidIterationProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		levels := []temporal.Level{0, 1, 0, 2, 1, 0}
		m := mesh.Strip(levels)
		s := NewState(m, DefaultParams())
		rng := seed
		for c := range s.U {
			rng = rng*6364136223846793005 + 1442695040888963407
			s.U[c] = float64(rng%1000) / 250
		}
		m0 := s.Mass()
		// Apply a pseudo-random interleaving of kernels.
		for i := 0; i < int(steps%30); i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			if rng%2 == 0 {
				f := int32(uint64(rng>>8) % uint64(m.NumFaces()))
				s.ComputeFaces([]int32{f})
			} else {
				c := int32(uint64(rng>>8) % uint64(m.NumCells()))
				s.UpdateCells([]int32{c})
			}
		}
		return math.Abs(s.Mass()-m0) <= 1e-9*math.Max(1, math.Abs(m0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFaceDtMatchesLevel(t *testing.T) {
	m := mesh.Strip([]temporal.Level{0, 2})
	p := DefaultParams()
	s := NewState(m, p)
	// Interior face between τ0 and τ2 → level 0 → dt = DtBase.
	if s.fdt[0] != p.DtBase {
		t.Errorf("interior face dt = %v, want %v", s.fdt[0], p.DtBase)
	}
}
