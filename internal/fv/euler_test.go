package fv

import (
	"math"
	"testing"

	"tempart/internal/mesh"
	"tempart/internal/temporal"
)

func TestEulerUniformIsSteadySingleLevel(t *testing.T) {
	// On a single-level mesh every face carries the same dt, so the closed
	// pressure balance cancels within every subiteration: a uniform gas at
	// rest stays *exactly* uniform.
	m := mesh.Strip(make([]temporal.Level, 40))
	s := NewEulerState(m, EulerParams{})
	s.InitUniform(1.0, 1.0)
	for i := 0; i < 5; i++ {
		s.RunIteration()
	}
	for c := 0; c < s.NumCells(); c++ {
		if mx, _, _ := s.Momentum(c); s.Density(c) != 1.0 || mx != 0 {
			t.Fatalf("uniform single-level state drifted at cell %d: rho=%v mx=%v", c, s.Density(c), mx)
		}
	}
}

func TestEulerUniformNearSteadyMultiLevel(t *testing.T) {
	// With multiple temporal levels, a level-boundary cell's wall/face
	// pressure impulses only cancel over a full iteration, leaving a
	// transient O(dt²) ripple — it must stay tiny and mass/energy exact.
	m := mesh.Cube(0.02)
	s := NewEulerState(m, EulerParams{})
	s.InitUniform(1.0, 1.0)
	m0, e0 := s.Mass(), s.TotalEnergy()
	ripple := func() float64 {
		w := 0.0
		for c := 0; c < s.NumCells(); c++ {
			mx, _, _ := s.Momentum(c)
			if a := math.Abs(mx); a > w {
				w = a
			}
		}
		return w
	}
	for i := 0; i < 4; i++ {
		s.RunIteration()
	}
	early := ripple()
	for i := 0; i < 8; i++ {
		s.RunIteration()
	}
	late := ripple()
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if early > 1e-3 { // Mach ~1e-3 startup bound
		t.Errorf("startup ripple too large: %v", early)
	}
	if late > early {
		t.Errorf("ripple grows: %v -> %v (instability)", early, late)
	}
	for c := 0; c < s.NumCells(); c++ {
		if math.Abs(s.Density(c)-1) > 1e-3 {
			t.Fatalf("uniform state drifted: rho[%d] = %v", c, s.Density(c))
		}
	}
	if math.Abs(s.Mass()-m0) > 1e-10*m0 || math.Abs(s.TotalEnergy()-e0) > 1e-10*e0 {
		t.Error("conserved totals drifted on uniform state")
	}
}

func TestEulerBlastConservesMassAndEnergy(t *testing.T) {
	m := mesh.Cylinder(0.0005)
	s := NewEulerState(m, EulerParams{DtBase: 2e-4})
	s.InitBlast(1.0, 0.5, 0.5, 0.2, 3.0)
	m0, e0 := s.Mass(), s.TotalEnergy()
	for i := 0; i < 3; i++ {
		s.RunIteration()
	}
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(s.Mass()-m0) / m0; rel > 1e-10 {
		t.Errorf("mass drift %.3e", rel)
	}
	if rel := math.Abs(s.TotalEnergy()-e0) / e0; rel > 1e-10 {
		t.Errorf("energy drift %.3e", rel)
	}
}

func TestEulerBlastExpands(t *testing.T) {
	// The overpressure region must launch an outward wave: density near the
	// centre drops, and cells at mid radius gain outward momentum.
	m := mesh.Cube(0.05)
	s := NewEulerState(m, EulerParams{DtBase: 2e-4})
	cx, cy, cz := 0.5, 0.5, 0.5
	s.InitBlast(cx, cy, cz, 0.1, 5.0)

	// Locate the centre-most cell.
	centre, bestD := 0, math.Inf(1)
	for c := 0; c < m.NumCells(); c++ {
		dx := float64(m.CX[c]) - cx
		dy := float64(m.CY[c]) - cy
		dz := float64(m.CZ[c]) - cz
		d := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if d < bestD {
			centre, bestD = c, d
		}
	}
	e0 := s.Energy(centre)
	for i := 0; i < 12; i++ {
		s.RunIteration()
	}
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if s.Energy(centre) >= e0 {
		t.Errorf("centre energy did not decrease: %v -> %v", e0, s.Energy(centre))
	}
	// Net radial momentum flux: sample cells at r ≈ 0.25 and check their
	// momentum points outward on average.
	var radial float64
	n := 0
	for c := 0; c < m.NumCells(); c++ {
		dx := float64(m.CX[c]) - cx
		dy := float64(m.CY[c]) - cy
		dz := float64(m.CZ[c]) - cz
		r := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if r < 0.15 || r > 0.35 {
			continue
		}
		mx, my, mz := s.Momentum(c)
		radial += (mx*dx + my*dy + mz*dz) / r
		n++
	}
	if n == 0 || radial <= 0 {
		t.Errorf("no outward wave: net radial momentum %v over %d cells", radial, n)
	}
}

func TestEulerSodShockTube(t *testing.T) {
	// 1D Sod problem on a 200-cell strip: after a short time the density
	// must be monotone decreasing from left to right plateau values, a
	// right-moving shock exists (density in the right half above the initial
	// 0.125), and the exact-solution bounds hold: ρ ∈ [0.125, 1].
	levels := make([]temporal.Level, 200)
	m := mesh.Strip(levels)
	s := NewEulerState(m, EulerParams{DtBase: 0.1}) // dx=1 → CFL ≈ 0.12
	s.InitSod(100)
	m0 := s.Mass()
	for i := 0; i < 300; i++ {
		s.RunIteration()
	}
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(s.Mass()-m0) / m0; rel > 1e-10 {
		t.Errorf("mass drift %.3e", rel)
	}
	for c := 0; c < s.NumCells(); c++ {
		if rho := s.Density(c); rho < 0.124 || rho > 1.001 {
			t.Fatalf("density %v at cell %d outside Sod bounds", rho, c)
		}
	}
	// Shock moved right: some cell beyond x=120 has compressed gas.
	compressed := false
	for c := 120; c < 180; c++ {
		if s.Density(c) > 0.2 {
			compressed = true
			break
		}
	}
	if !compressed {
		t.Error("no right-moving shock detected")
	}
	// The left end is still undisturbed (wave hasn't reached it... with 300
	// iterations and smax≈1.2 the expansion foot stays right of cell 20).
	if s.Density(2) < 0.99 {
		t.Errorf("left state disturbed too early: rho[2] = %v", s.Density(2))
	}
}

func TestEulerKernelPartitionInvariance(t *testing.T) {
	// As for the scalar model: chunked kernels equal monolithic kernels.
	levels := []temporal.Level{0, 1, 0, 2, 1, 0, 0, 1}
	mA, mB := mesh.Strip(levels), mesh.Strip(levels)
	a := NewEulerState(mA, EulerParams{})
	b := NewEulerState(mB, EulerParams{})
	a.InitBlast(4, 0.5, 0.5, 2, 2)
	b.InitBlast(4, 0.5, 0.5, 2, 2)

	a.RunIteration()

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
				b.ComputeFaces([]int32{f})
			}
			for _, c := range cellsBy[tau] {
				b.UpdateCells([]int32{c})
			}
		}
	}
	for c := 0; c < a.NumCells(); c++ {
		if math.Abs(a.Density(c)-b.Density(c)) > 1e-13 || math.Abs(a.Energy(c)-b.Energy(c)) > 1e-13 {
			t.Fatalf("cell %d diverged: rho %v/%v E %v/%v", c, a.Density(c), b.Density(c), a.Energy(c), b.Energy(c))
		}
	}
}

func TestEulerDefaults(t *testing.T) {
	p := EulerParams{}.withDefaults()
	if p.Gamma != 1.4 || p.DtBase != 1e-3 {
		t.Errorf("defaults = %+v", p)
	}
}
