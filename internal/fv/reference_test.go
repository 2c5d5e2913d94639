package fv

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"tempart/internal/mesh"
	"tempart/internal/temporal"
)

// referenceEulerState is the Euler model stated the plain way: five
// structure-of-arrays slices of conserved variables, with every face
// recomputing both cells' pressure and sound speed. EulerState keeps each
// cell on one record with its pressure and sound speed cached by the
// writers, and must produce the same bits. Face geometry is borrowed from an
// EulerState over the same mesh.
type referenceEulerState struct {
	Rho, Mx, My, Mz, E []float64
	aL, aR             [][5]float64
	geom               *EulerState
}

func newReferenceEulerState(m *mesh.Mesh, p EulerParams) *referenceEulerState {
	n := m.NumCells()
	return &referenceEulerState{
		Rho: make([]float64, n), Mx: make([]float64, n), My: make([]float64, n),
		Mz: make([]float64, n), E: make([]float64, n),
		aL: make([][5]float64, m.NumFaces()), aR: make([][5]float64, m.NumFaces()),
		geom: NewEulerState(m, p),
	}
}

func (s *referenceEulerState) InitUniform(rho, pressure float64) {
	e := pressure / (s.geom.p.Gamma - 1)
	for c := range s.Rho {
		s.Rho[c] = rho
		s.Mx[c], s.My[c], s.Mz[c] = 0, 0, 0
		s.E[c] = e
	}
}

func (s *referenceEulerState) InitBlast(cx, cy, cz, width, overpressure float64) {
	s.InitUniform(1.0, 1.0)
	inv := 1 / (2 * width * width)
	m := s.geom.m
	for c := range s.Rho {
		dx := float64(m.CX[c]) - cx
		dy := float64(m.CY[c]) - cy
		dz := float64(m.CZ[c]) - cz
		p := 1.0 + overpressure*math.Exp(-(dx*dx+dy*dy+dz*dz)*inv)
		s.E[c] = p / (s.geom.p.Gamma - 1)
	}
}

func (s *referenceEulerState) InitSod(xSplit float64) {
	g1 := s.geom.p.Gamma - 1
	m := s.geom.m
	for c := range s.Rho {
		if float64(m.CX[c]) < xSplit {
			s.Rho[c], s.E[c] = 1.0, 1.0/g1
		} else {
			s.Rho[c], s.E[c] = 0.125, 0.1/g1
		}
		s.Mx[c], s.My[c], s.Mz[c] = 0, 0, 0
	}
}

func (s *referenceEulerState) pressure(c int32) float64 {
	ke := (s.Mx[c]*s.Mx[c] + s.My[c]*s.My[c] + s.Mz[c]*s.Mz[c]) / (2 * s.Rho[c])
	return (s.geom.p.Gamma - 1) * (s.E[c] - ke)
}

func (s *referenceEulerState) ComputeFaces(faces []int32) {
	g := s.geom.p.Gamma
	m := s.geom.m
	geo := s.geom
	for _, fi := range faces {
		f := m.Faces[fi]
		if f.IsBoundary() {
			p := s.pressure(f.C0)
			k := geo.area[fi] * geo.fdt[fi]
			a := &s.aL[fi]
			a[1] -= k * p * geo.nx[fi]
			a[2] -= k * p * geo.ny[fi]
			a[3] -= k * p * geo.nz[fi]
			continue
		}
		L, R := f.C0, f.C1
		nx, ny, nz := geo.nx[fi], geo.ny[fi], geo.nz[fi]

		rL, rR := s.Rho[L], s.Rho[R]
		uL := (s.Mx[L]*nx + s.My[L]*ny + s.Mz[L]*nz) / rL
		uR := (s.Mx[R]*nx + s.My[R]*ny + s.Mz[R]*nz) / rR
		pL, pR := s.pressure(L), s.pressure(R)
		if pL < 1e-12 {
			pL = 1e-12
		}
		if pR < 1e-12 {
			pR = 1e-12
		}
		cL := math.Sqrt(g * pL / rL)
		cR := math.Sqrt(g * pR / rR)
		smax := math.Max(math.Abs(uL)+cL, math.Abs(uR)+cR)

		fRhoL := rL * uL
		fRhoR := rR * uR
		fMxL := s.Mx[L]*uL + pL*nx
		fMxR := s.Mx[R]*uR + pR*nx
		fMyL := s.My[L]*uL + pL*ny
		fMyR := s.My[R]*uR + pR*ny
		fMzL := s.Mz[L]*uL + pL*nz
		fMzR := s.Mz[R]*uR + pR*nz
		fEL := (s.E[L] + pL) * uL
		fER := (s.E[R] + pR) * uR

		k := 0.5 * geo.area[fi] * geo.fdt[fi]
		dRho := k * (fRhoL + fRhoR - smax*(rR-rL))
		dMx := k * (fMxL + fMxR - smax*(s.Mx[R]-s.Mx[L]))
		dMy := k * (fMyL + fMyR - smax*(s.My[R]-s.My[L]))
		dMz := k * (fMzL + fMzR - smax*(s.Mz[R]-s.Mz[L]))
		dE := k * (fEL + fER - smax*(s.E[R]-s.E[L]))

		aL, aR := &s.aL[fi], &s.aR[fi]
		aL[0] -= dRho
		aR[0] += dRho
		aL[1] -= dMx
		aR[1] += dMx
		aL[2] -= dMy
		aR[2] += dMy
		aL[3] -= dMz
		aR[3] += dMz
		aL[4] -= dE
		aR[4] += dE
	}
}

func (s *referenceEulerState) UpdateCells(cells []int32) {
	m := s.geom.m
	for _, c := range cells {
		var acc [5]float64
		for _, fi := range m.CellFaces(c) {
			var a *[5]float64
			if m.Faces[fi].C0 == c {
				a = &s.aL[fi]
			} else {
				a = &s.aR[fi]
			}
			for k := 0; k < 5; k++ {
				acc[k] += a[k]
				a[k] = 0
			}
		}
		inv := 1 / float64(m.Volume[c])
		s.Rho[c] += acc[0] * inv
		s.Mx[c] += acc[1] * inv
		s.My[c] += acc[2] * inv
		s.Mz[c] += acc[3] * inv
		s.E[c] += acc[4] * inv
	}
}

func (s *referenceEulerState) Mass() float64 {
	var total float64
	for c := range s.Rho {
		total += s.Rho[c] * float64(s.geom.m.Volume[c])
	}
	for f := range s.aL {
		total += s.aL[f][0] + s.aR[f][0]
	}
	return total
}

func (s *referenceEulerState) TotalEnergy() float64 {
	var total float64
	for c := range s.E {
		total += s.E[c] * float64(s.geom.m.Volume[c])
	}
	for f := range s.aL {
		total += s.aL[f][4] + s.aR[f][4]
	}
	return total
}

func (s *referenceEulerState) CheckFinite() bool {
	for c := range s.Rho {
		if !(s.Rho[c] > 0) || math.IsInf(s.Rho[c], 0) || !(s.E[c] > 0) || math.IsInf(s.E[c], 0) {
			return false
		}
		if p := s.pressure(int32(c)); !(p > 0) || math.IsNaN(p) {
			return false
		}
	}
	return true
}

func (s *referenceEulerState) RunIteration() {
	m := s.geom.m
	scheme := m.Scheme()
	facesBy := make([][]int32, scheme.NumLevels())
	cellsBy := make([][]int32, scheme.NumLevels())
	for i, f := range m.Faces {
		l := m.Level[f.C0]
		if !f.IsBoundary() && m.Level[f.C1] < l {
			l = m.Level[f.C1]
		}
		facesBy[l] = append(facesBy[l], int32(i))
	}
	for c := 0; c < m.NumCells(); c++ {
		cellsBy[m.Level[c]] = append(cellsBy[m.Level[c]], int32(c))
	}
	for sub := 0; sub < scheme.NumSubiterations(); sub++ {
		for _, tau := range scheme.ActiveLevels(sub) {
			s.ComputeFaces(facesBy[tau])
			s.UpdateCells(cellsBy[tau])
		}
	}
}

// sameBits reports whether a and b are the same IEEE-754 value bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// eulerMismatch returns the first cell (or -1 for the totals) where s and
// ref differ in any bit, and whether they differ at all.
func eulerMismatch(s *EulerState, ref *referenceEulerState) (int, bool) {
	for c := 0; c < s.NumCells(); c++ {
		mx, my, mz := s.Momentum(c)
		if !sameBits(s.Density(c), ref.Rho[c]) || !sameBits(mx, ref.Mx[c]) || !sameBits(my, ref.My[c]) ||
			!sameBits(mz, ref.Mz[c]) || !sameBits(s.Energy(c), ref.E[c]) {
			return c, true
		}
	}
	if !sameBits(s.Mass(), ref.Mass()) || !sameBits(s.TotalEnergy(), ref.TotalEnergy()) {
		return -1, true
	}
	return 0, false
}

// fuzzEulerMeshes are the generator meshes FuzzEulerMatchesReference draws
// from; selectors past the end build a strip from the fuzzed levels.
var fuzzEulerMeshes = []*mesh.Mesh{
	mesh.Cube(0.001),
	mesh.Cylinder(0.0001),
	mesh.Nozzle(0.00005),
}

// setRandomState fills both states with the same seeded gas: densities
// spread over three decades, velocities up to 1 and pressures spread over
// ten. A quarter of the cells (all of them when vacuum is set) are near
// vacuum, with densities down to 1e-6 and a pressure far below the 1e-12
// clamp of the face kernel.
func setRandomState(s *EulerState, ref *referenceEulerState, rng *rand.Rand, vacuum bool) {
	g1 := s.p.Gamma - 1
	for c := range s.cells {
		rho := math.Pow(10, -3*rng.Float64())
		p := math.Pow(10, 1-10*rng.Float64())
		if vacuum || rng.Intn(4) == 0 {
			rho = math.Pow(10, -6*rng.Float64())
			p = math.Pow(10, -13-3*rng.Float64())
		}
		ux, uy, uz := 2*rng.Float64()-1, 2*rng.Float64()-1, 2*rng.Float64()-1
		mx, my, mz := rho*ux, rho*uy, rho*uz
		e := p/g1 + (mx*mx+my*my+mz*mz)/(2*rho)

		x := &s.cells[c]
		x.rho, x.mx, x.my, x.mz, x.e = rho, mx, my, mz, e
		s.refresh(x)
		ref.Rho[c], ref.Mx[c], ref.My[c], ref.Mz[c], ref.E[c] = rho, mx, my, mz, e
	}
}

// FuzzEulerMatchesReference runs EulerState and the SoA reference side by
// side — generator meshes and arbitrary strips, blast, Sod, seeded random
// and near-vacuum states, one to three iterations — and requires every
// cell's ρ, m and E, and Mass() and TotalEnergy(), to be bit-identical after
// every iteration. Comparison stops once the reference state leaves what
// CheckFinite accepts: past that point NaN propagation is not part of the
// contract.
func FuzzEulerMatchesReference(f *testing.F) {
	for sel := uint8(0); sel < 4; sel++ {
		for kind := uint8(0); kind < 4; kind++ {
			f.Add(sel, []byte{0, 1, 2, 1, 0, 3, 3, 2}, kind, int64(sel)*4+int64(kind), uint8(2))
		}
	}

	f.Fuzz(func(t *testing.T, meshSel uint8, levels []byte, kind uint8, seed int64, itersRaw uint8) {
		var m *mesh.Mesh
		if int(meshSel) < len(fuzzEulerMeshes) {
			m = fuzzEulerMeshes[meshSel]
		} else {
			if len(levels) < 2 || len(levels) > 64 {
				t.Skip()
			}
			lv := make([]temporal.Level, len(levels))
			for i, b := range levels {
				lv[i] = temporal.Level(b % 4)
			}
			m = mesh.Strip(lv)
		}
		rng := rand.New(rand.NewSource(seed))
		p := EulerParams{DtBase: math.Pow(10, -4+2*rng.Float64())}
		s := NewEulerState(m, p)
		ref := newReferenceEulerState(m, p)
		var maxX float64 // centroids lie in x > 0
		for c := 0; c < m.NumCells(); c++ {
			maxX = max(maxX, float64(m.CX[c]))
		}
		switch kind % 4 {
		case 0:
			cx, cy, cz := rng.Float64()*maxX, rng.Float64(), rng.Float64()
			width, over := 0.05+rng.Float64(), 5*rng.Float64()
			s.InitBlast(cx, cy, cz, width, over)
			ref.InitBlast(cx, cy, cz, width, over)
		case 1:
			split := rng.Float64() * maxX
			s.InitSod(split)
			ref.InitSod(split)
		default:
			setRandomState(s, ref, rng, kind%4 == 3)
		}
		if c, differ := eulerMismatch(s, ref); differ {
			t.Fatalf("initial state differs at cell %d", c)
		}
		for it := 0; it < 1+int(itersRaw%3); it++ {
			s.RunIteration()
			ref.RunIteration()
			if !ref.CheckFinite() {
				return
			}
			if c, differ := eulerMismatch(s, ref); differ {
				t.Fatalf("iteration %d: state differs from the reference at cell %d (-1: totals)", it+1, c)
			}
			if err := s.CheckFinite(); err != nil {
				t.Fatalf("iteration %d: reference accepted, EulerState: %v", it+1, err)
			}
		}
	})
}

// TestEulerCellIsOneCacheLine pins the record to 64 bytes, so that a face
// touching a cell loads exactly one cache line for it.
func TestEulerCellIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(eulerCell{}); n != 64 {
		t.Fatalf("eulerCell is %d bytes, want 64", n)
	}
}
