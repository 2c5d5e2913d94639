package fv

import (
	"fmt"
	"math"

	"tempart/internal/mesh"
	"tempart/internal/temporal"
)

// EulerState solves the 3D compressible Euler equations — the inviscid core
// of FLUSEPA's Navier-Stokes model — with the same flux-accumulator local
// time stepping as the scalar State: five conserved variables per cell
// (density, three momentum components, total energy), a Rusanov (local
// Lax-Friedrichs) numerical flux on faces, and reflective (slip-wall)
// boundaries so that mass and energy are conserved to round-off.
//
// It implements the same kernel pair (ComputeFaces / UpdateCells over object
// id lists) as State, so the task runtime can execute either model through
// an identical task graph.
type EulerState struct {
	// cells holds each cell's conserved variables next to its pressure and
	// sound speed, one record per cache line.
	cells []eulerCell
	// Per-face side accumulators: aL[f]/aR[f] hold the flux·dt integrals
	// destined for the C0/C1 cell, components ordered ρ, mx, my, mz, E.
	// Single-writer per slot under the task graph (see package fv docs).
	aL, aR [][5]float64

	m      *mesh.Mesh
	p      EulerParams
	scheme temporal.Scheme

	// Face geometry: unit normal (C0→C1), area, time step.
	nx, ny, nz []float64
	area       []float64
	fdt        []float64
}

// eulerCell is one cell's state on one 64-byte cache line: the conserved
// variables and the two quantities every face kernel derives from them.
//
// Invariant: p and c are always the functions of the conserved variables
// that refresh computes. The record is unexported and its only writers —
// the initialisers and UpdateCells — call refresh right after writing a
// cell, so a face reads them instead of recomputing them per face side.
type eulerCell struct {
	rho, mx, my, mz, e float64
	// p is the raw pressure (γ−1)(E − |m|²/2ρ), unclamped: the slip wall
	// applies it as is, interior faces clamp it at 1e-12 themselves.
	p float64
	// c is the sound speed √(γ·max(p, 1e-12)/ρ).
	c float64
	_ float64 // pad to 64 bytes
}

// EulerParams configures the gas model.
type EulerParams struct {
	// Gamma is the ratio of specific heats; 0 defaults to 1.4 (air).
	Gamma float64
	// DtBase is the finest temporal level's time step; 0 defaults to 1e-3.
	DtBase float64
}

func (p EulerParams) withDefaults() EulerParams {
	if p.Gamma <= 1 {
		p.Gamma = 1.4
	}
	if p.DtBase <= 0 {
		p.DtBase = 1e-3
	}
	return p
}

// NewEulerState allocates the Euler solver state over a mesh.
func NewEulerState(m *mesh.Mesh, p EulerParams) *EulerState {
	p = p.withDefaults()
	n := m.NumCells()
	s := &EulerState{
		cells: make([]eulerCell, n),
		aL:    make([][5]float64, m.NumFaces()), aR: make([][5]float64, m.NumFaces()),
		m: m, p: p, scheme: m.Scheme(),
	}
	for c := range s.cells { // the invariant holds from the zero state on
		s.refresh(&s.cells[c])
	}
	s.precomputeFaces()
	if n > 0 {
		m.CellFaces(0) // pre-build the cell→face index before parallel use
	}
	return s
}

// NumCells returns the number of cells in the state.
func (s *EulerState) NumCells() int { return len(s.cells) }

// Density returns cell c's density ρ.
func (s *EulerState) Density(c int) float64 { return s.cells[c].rho }

// Momentum returns cell c's momentum (ρu, ρv, ρw).
func (s *EulerState) Momentum(c int) (mx, my, mz float64) {
	x := &s.cells[c]
	return x.mx, x.my, x.mz
}

// Energy returns cell c's total energy per unit volume E.
func (s *EulerState) Energy(c int) float64 { return s.cells[c].e }

// RefreshLevels re-derives the level-dependent caches (temporal scheme, face
// time steps) after the mesh's temporal levels changed in place. Call it
// only between iterations, when the face accumulators are drained.
func (s *EulerState) RefreshLevels() {
	s.scheme = s.m.Scheme()
	s.precomputeFaces()
}

func (s *EulerState) precomputeFaces() {
	m := s.m
	nf := m.NumFaces()
	s.nx = make([]float64, nf)
	s.ny = make([]float64, nf)
	s.nz = make([]float64, nf)
	s.area = make([]float64, nf)
	s.fdt = make([]float64, nf)
	for i, f := range m.Faces {
		lvl := m.Level[f.C0]
		if !f.IsBoundary() && m.Level[f.C1] < lvl {
			lvl = m.Level[f.C1]
		}
		s.fdt[i] = s.p.DtBase * float64(int64(1)<<lvl)
		// Unit areas keep the discrete closure Σ n̂·A = 0 exact on the
		// generators' lattice geometry, so a uniform gas at rest is an
		// exact steady state (production codes guarantee closure through
		// exact face geometry; our synthetic meshes guarantee it this way).
		s.area[i] = 1
		if f.IsBoundary() {
			bx, by, bz := m.BoundaryNormal(int32(i))
			s.nx[i], s.ny[i], s.nz[i] = float64(bx), float64(by), float64(bz)
			continue
		}
		dx := float64(m.CX[f.C1] - m.CX[f.C0])
		dy := float64(m.CY[f.C1] - m.CY[f.C0])
		dz := float64(m.CZ[f.C1] - m.CZ[f.C0])
		d := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if d == 0 {
			d = 1e-12
		}
		s.nx[i], s.ny[i], s.nz[i] = dx/d, dy/d, dz/d
	}
}

// refresh recomputes x's cached pressure and sound speed from its conserved
// variables. Every write of a cell must be followed by it (see eulerCell).
func (s *EulerState) refresh(x *eulerCell) {
	g := s.p.Gamma
	ke := (x.mx*x.mx + x.my*x.my + x.mz*x.mz) / (2 * x.rho)
	x.p = (g - 1) * (x.e - ke)
	p := x.p
	if p < 1e-12 {
		p = 1e-12
	}
	x.c = math.Sqrt(g * p / x.rho)
}

// InitUniform fills the domain with gas at rest at the given density and
// pressure.
func (s *EulerState) InitUniform(rho, pressure float64) {
	e := pressure / (s.p.Gamma - 1)
	for c := range s.cells {
		x := &s.cells[c]
		x.rho = rho
		x.mx, x.my, x.mz = 0, 0, 0
		x.e = e
		s.refresh(x)
	}
}

// InitBlast superimposes a high-pressure Gaussian region centred at
// (cx,cy,cz) on a quiescent background — the blast-wave configuration of the
// paper's motivating applications (launcher take-off, stage separation).
func (s *EulerState) InitBlast(cx, cy, cz, width, overpressure float64) {
	s.InitUniform(1.0, 1.0)
	inv := 1 / (2 * width * width)
	m := s.m
	for c := range s.cells {
		dx := float64(m.CX[c]) - cx
		dy := float64(m.CY[c]) - cy
		dz := float64(m.CZ[c]) - cz
		p := 1.0 + overpressure*math.Exp(-(dx*dx+dy*dy+dz*dz)*inv)
		x := &s.cells[c]
		x.e = p / (s.p.Gamma - 1)
		s.refresh(x)
	}
}

// InitSod sets the classical Sod shock-tube state split at x = xSplit:
// (ρ,p) = (1, 1) on the left, (0.125, 0.1) on the right, gas at rest.
func (s *EulerState) InitSod(xSplit float64) {
	g1 := s.p.Gamma - 1
	m := s.m
	for c := range s.cells {
		x := &s.cells[c]
		if float64(m.CX[c]) < xSplit {
			x.rho, x.e = 1.0, 1.0/g1
		} else {
			x.rho, x.e = 0.125, 0.1/g1
		}
		x.mx, x.my, x.mz = 0, 0, 0
		s.refresh(x)
	}
}

// ComputeFaces evaluates the Rusanov flux on the given faces and integrates
// it over each face's time step into both adjacent cells' accumulators.
// Boundary faces are slip walls: only the pressure force (along the stored
// outward normal) acts, so mass and energy are conserved exactly and a
// uniform gas at rest stays exactly steady.
func (s *EulerState) ComputeFaces(faces []int32) {
	m := s.m
	for _, fi := range faces {
		f := m.Faces[fi]
		if f.IsBoundary() {
			// Slip wall: only the pressure force acts, along the outward
			// normal; no mass or energy crosses.
			p := s.cells[f.C0].p
			k := s.area[fi] * s.fdt[fi]
			a := &s.aL[fi]
			a[1] -= k * p * s.nx[fi]
			a[2] -= k * p * s.ny[fi]
			a[3] -= k * p * s.nz[fi]
			continue
		}
		l, r := &s.cells[f.C0], &s.cells[f.C1]
		nx, ny, nz := s.nx[fi], s.ny[fi], s.nz[fi]

		uL := (l.mx*nx + l.my*ny + l.mz*nz) / l.rho
		uR := (r.mx*nx + r.my*ny + r.mz*nz) / r.rho
		pL, pR := l.p, r.p
		if pL < 1e-12 {
			pL = 1e-12
		}
		if pR < 1e-12 {
			pR = 1e-12
		}
		// Both speeds are |u| + c with c > 0, so a compare picks the same
		// value as math.Max on every state CheckFinite accepts.
		smax := math.Abs(uL) + l.c
		if sR := math.Abs(uR) + r.c; sR > smax {
			smax = sR
		}

		// Physical fluxes F(U)·n on each side.
		fRhoL := l.rho * uL
		fRhoR := r.rho * uR
		fMxL := l.mx*uL + pL*nx
		fMxR := r.mx*uR + pR*nx
		fMyL := l.my*uL + pL*ny
		fMyR := r.my*uR + pR*ny
		fMzL := l.mz*uL + pL*nz
		fMzR := r.mz*uR + pR*nz
		fEL := (l.e + pL) * uL
		fER := (r.e + pR) * uR

		// Rusanov: ½(F_L+F_R) − ½·smax·(U_R−U_L), scaled by area·dt.
		k := 0.5 * s.area[fi] * s.fdt[fi]
		dRho := k * (fRhoL + fRhoR - smax*(r.rho-l.rho))
		dMx := k * (fMxL + fMxR - smax*(r.mx-l.mx))
		dMy := k * (fMyL + fMyR - smax*(r.my-l.my))
		dMz := k * (fMzL + fMzR - smax*(r.mz-l.mz))
		dE := k * (fEL + fER - smax*(r.e-l.e))

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

// UpdateCells drains the side accumulators of each cell's faces into the
// conserved variables and refreshes the cell's pressure and sound speed.
func (s *EulerState) UpdateCells(cells []int32) {
	m := s.m
	for _, c := range cells {
		var dRho, dMx, dMy, dMz, dE float64
		for _, fi := range m.CellFaces(c) {
			var a *[5]float64
			if m.Faces[fi].C0 == c {
				a = &s.aL[fi]
			} else {
				a = &s.aR[fi]
			}
			dRho += a[0]
			dMx += a[1]
			dMy += a[2]
			dMz += a[3]
			dE += a[4]
			*a = [5]float64{}
		}
		inv := 1 / float64(m.Volume[c])
		x := &s.cells[c]
		x.rho += dRho * inv
		x.mx += dMx * inv
		x.my += dMy * inv
		x.mz += dMz * inv
		x.e += dE * inv
		s.refresh(x)
	}
}

// Mass returns the conserved total mass Σ ρ·vol + Σ side accumulators.
func (s *EulerState) Mass() float64 {
	var total float64
	for c := range s.cells {
		total += s.cells[c].rho * float64(s.m.Volume[c])
	}
	for f := range s.aL {
		total += s.aL[f][0] + s.aR[f][0]
	}
	return total
}

// TotalEnergy returns the conserved total energy Σ E·vol + Σ side accs.
func (s *EulerState) TotalEnergy() float64 {
	var total float64
	for c := range s.cells {
		total += s.cells[c].e * float64(s.m.Volume[c])
	}
	for f := range s.aL {
		total += s.aL[f][4] + s.aR[f][4]
	}
	return total
}

// CheckFinite verifies that density, energy and pressure are finite and
// positive everywhere.
func (s *EulerState) CheckFinite() error {
	for c := range s.cells {
		x := &s.cells[c]
		if !(x.rho > 0) || math.IsInf(x.rho, 0) {
			return fmt.Errorf("fv: non-positive density %v at cell %d", x.rho, c)
		}
		if !(x.e > 0) || math.IsInf(x.e, 0) {
			return fmt.Errorf("fv: non-positive energy %v at cell %d", x.e, c)
		}
		if p := x.p; !(p > 0) || math.IsNaN(p) {
			return fmt.Errorf("fv: non-positive pressure %v at cell %d", p, c)
		}
	}
	return nil
}

// RunIteration advances one full adaptive iteration serially, in the same
// phase order as the task generation algorithm — the golden reference for
// task-parallel Euler execution.
func (s *EulerState) RunIteration() {
	m := s.m
	facesBy := make([][]int32, s.scheme.NumLevels())
	cellsBy := make([][]int32, s.scheme.NumLevels())
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
	for sub := 0; sub < s.scheme.NumSubiterations(); sub++ {
		for _, tau := range s.scheme.ActiveLevels(sub) {
			s.ComputeFaces(facesBy[tau])
			s.UpdateCells(cellsBy[tau])
		}
	}
}
