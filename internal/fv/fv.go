// Package fv implements the explicit finite-volume kernels that play the
// role of FLUSEPA's Navier-Stokes solver in this reproduction: a 3D
// advection–diffusion conservation law integrated with the adaptive
// time-stepping scheme of internal/temporal.
//
// The numerical model is deliberately simpler than the production code's
// (first-order upwind advection plus central diffusion, forward-Euler stages
// instead of second-order Heun — see DESIGN.md §2): what the paper's
// evaluation depends on is that per-task work is proportional to the active
// face/cell counts and that the update pattern follows the temporal levels,
// both of which hold exactly here. In exchange we get a checkable substrate:
// with zero-flux boundaries the scheme conserves total mass to round-off.
//
// The local time stepping follows the classical flux-accumulation scheme:
// every face activation integrates its flux over the face's own time step
// (dtBase·2^τface) into two per-face accumulators, one per adjacent side;
// every cell activation drains its faces' side accumulators into the
// conserved value. Because each face contribution enters the two sides
// antisymmetrically, the quantity Σ U·vol + Σ sideAcc is invariant at every
// point of the iteration.
//
// Storing contributions per (face, side) rather than per cell makes every
// memory slot single-writer under the task graph's dependencies: a face is
// written only by its owning face task, and each side is drained only by
// that side's cell task, with write→drain→write alternation ordered by the
// existing DAG edges. Task-parallel execution is therefore race-free and
// bit-exact deterministic — it reproduces RunIteration's floating-point
// result exactly. (This mirrors receiver-side halo accumulation in the MPI
// production code, where border contributions are merged by the owning
// process.)
package fv

import (
	"fmt"
	"math"

	"tempart/internal/mesh"
	"tempart/internal/temporal"
)

// Params configures the physics.
type Params struct {
	// Velocity is the uniform advection field.
	Velocity [3]float64
	// Diffusion is the scalar diffusivity.
	Diffusion float64
	// DtBase is the time step of the finest temporal level; level τ cells
	// advance by DtBase·2^τ per activation.
	DtBase float64
}

// DefaultParams returns stable parameters for the synthetic meshes.
func DefaultParams() Params {
	return Params{Velocity: [3]float64{1, 0.3, 0.2}, Diffusion: 0.05, DtBase: 0.01}
}

// State is the solver state over a mesh.
type State struct {
	// U is the conserved cell value (e.g. density).
	U []float64
	// AccL and AccR accumulate flux·dt contributions per face for the C0
	// (left) and C1 (right) side respectively, between cell activations.
	AccL, AccR []float64

	m      *mesh.Mesh
	p      Params
	scheme temporal.Scheme

	// faceGeom caches per-face area·(v·n) advection factors and diffusion
	// transmissibilities.
	adv  []float64 // signed: positive moves mass C0 → C1
	diff []float64
	fdt  []float64 // face time step DtBase·2^τface
}

// NewState allocates the solver state for a mesh.
func NewState(m *mesh.Mesh, p Params) *State {
	if p.DtBase <= 0 {
		p.DtBase = 0.01
	}
	s := &State{
		U:      make([]float64, m.NumCells()),
		AccL:   make([]float64, m.NumFaces()),
		AccR:   make([]float64, m.NumFaces()),
		m:      m,
		p:      p,
		scheme: m.Scheme(),
	}
	s.precomputeFaceGeometry()
	if m.NumCells() > 0 {
		m.CellFaces(0) // pre-build the cell→face index before parallel use
	}
	return s
}

// RefreshLevels re-derives the level-dependent caches (temporal scheme and
// per-face time steps) after the mesh's temporal levels changed in place —
// e.g. by mesh.ReassignLevels during a solver-loop repartition. Call it only
// between iterations, when all face accumulators have been drained.
func (s *State) RefreshLevels() {
	s.scheme = s.m.Scheme()
	s.precomputeFaceGeometry()
}

func (s *State) precomputeFaceGeometry() {
	m := s.m
	nf := m.NumFaces()
	s.adv = make([]float64, nf)
	s.diff = make([]float64, nf)
	s.fdt = make([]float64, nf)
	for i, f := range m.Faces {
		lvl := m.Level[f.C0]
		if f.IsBoundary() {
			// Zero-flux boundary: factors stay 0.
			s.fdt[i] = s.p.DtBase * float64(int64(1)<<lvl)
			continue
		}
		if m.Level[f.C1] < lvl {
			lvl = m.Level[f.C1]
		}
		s.fdt[i] = s.p.DtBase * float64(int64(1)<<lvl)

		dx := float64(m.CX[f.C1] - m.CX[f.C0])
		dy := float64(m.CY[f.C1] - m.CY[f.C0])
		dz := float64(m.CZ[f.C1] - m.CZ[f.C0])
		dist := math.Sqrt(dx*dx + dy*dy + dz*dz)
		if dist == 0 {
			dist = 1e-12
		}
		// Face area ≈ (geometric mean volume)^(2/3).
		vol := math.Sqrt(float64(m.Volume[f.C0]) * float64(m.Volume[f.C1]))
		area := math.Pow(vol, 2.0/3.0)
		vn := (s.p.Velocity[0]*dx + s.p.Velocity[1]*dy + s.p.Velocity[2]*dz) / dist
		s.adv[i] = vn * area
		s.diff[i] = s.p.Diffusion * area / dist
	}
}

// InitGaussian sets U to a Gaussian blob centred at (cx,cy,cz).
func (s *State) InitGaussian(cx, cy, cz, width, amplitude float64) {
	m := s.m
	inv := 1 / (2 * width * width)
	for c := 0; c < m.NumCells(); c++ {
		dx := float64(m.CX[c]) - cx
		dy := float64(m.CY[c]) - cy
		dz := float64(m.CZ[c]) - cz
		s.U[c] = amplitude * math.Exp(-(dx*dx+dy*dy+dz*dz)*inv)
	}
}

// ComputeFaces runs the face kernel over the given face ids: first-order
// upwind advection plus central diffusion, integrated over the face's time
// step into the face's two side accumulators. This is the body of a
// FaceKind task.
func (s *State) ComputeFaces(faces []int32) {
	m := s.m
	for _, fi := range faces {
		f := m.Faces[fi]
		if f.IsBoundary() {
			continue // zero-flux wall
		}
		a := s.adv[fi]
		var flux float64
		if a >= 0 {
			flux = a * s.U[f.C0]
		} else {
			flux = a * s.U[f.C1]
		}
		flux += s.diff[fi] * (s.U[f.C0] - s.U[f.C1])
		x := flux * s.fdt[fi]
		s.AccL[fi] -= x
		s.AccR[fi] += x
	}
}

// UpdateCells runs the cell kernel over the given cell ids: drain the side
// accumulators of each cell's faces into the conserved value. This is the
// body of a CellKind task.
func (s *State) UpdateCells(cells []int32) {
	m := s.m
	for _, c := range cells {
		var acc float64
		for _, fi := range m.CellFaces(c) {
			if m.Faces[fi].C0 == c {
				acc += s.AccL[fi]
				s.AccL[fi] = 0
			} else {
				acc += s.AccR[fi]
				s.AccR[fi] = 0
			}
		}
		s.U[c] += acc / float64(m.Volume[c])
	}
}

// Mass returns the conserved total Σ U·vol + Σ (AccL+AccR). With zero-flux
// boundaries it is invariant under any interleaving of ComputeFaces and
// UpdateCells calls that the task graph permits.
func (s *State) Mass() float64 {
	var total float64
	for c := range s.U {
		total += s.U[c] * float64(s.m.Volume[c])
	}
	for f := range s.AccL {
		total += s.AccL[f] + s.AccR[f]
	}
	return total
}

// RunIteration advances one full iteration serially, following exactly the
// subiteration/phase order of the task generation algorithm (descending τ,
// faces before cells). It is the golden reference the task-parallel
// execution must match.
func (s *State) RunIteration() {
	m := s.m
	nsub := s.scheme.NumSubiterations()
	// Group object ids by level once.
	facesByLevel := make([][]int32, s.scheme.NumLevels())
	cellsByLevel := make([][]int32, s.scheme.NumLevels())
	for i := range m.Faces {
		l := m.Level[m.Faces[i].C0]
		if !m.Faces[i].IsBoundary() && m.Level[m.Faces[i].C1] < l {
			l = m.Level[m.Faces[i].C1]
		}
		facesByLevel[l] = append(facesByLevel[l], int32(i))
	}
	for c := 0; c < m.NumCells(); c++ {
		cellsByLevel[m.Level[c]] = append(cellsByLevel[m.Level[c]], int32(c))
	}
	for sub := 0; sub < nsub; sub++ {
		for _, tau := range s.scheme.ActiveLevels(sub) {
			s.ComputeFaces(facesByLevel[tau])
			s.UpdateCells(cellsByLevel[tau])
		}
	}
}

// CheckFinite returns an error naming the first non-finite cell value.
func (s *State) CheckFinite() error {
	for c, u := range s.U {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return fmt.Errorf("fv: non-finite U at cell %d: %v", c, u)
		}
	}
	return nil
}
