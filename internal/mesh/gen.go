package mesh

import (
	"fmt"
	"math"

	"tempart/internal/temporal"
)

// Table I of the paper: full-scale per-temporal-level cell counts of the
// three Airbus meshes. The synthetic generators reproduce these fractions at
// any scale.
var (
	// CylinderCounts is the CYLINDER census (6,400,505 cells, 4 levels).
	CylinderCounts = []int64{52697, 273525, 2088538, 3985745}
	// CubeCounts is the CUBE census (151,817 cells, 4 levels). Note the
	// non-monotone census: level 2 holds only 514 cells.
	CubeCounts = []int64{2953, 23489, 514, 124861}
	// NozzleCounts is the PPRIME_NOZZLE census (12,594,374 cells, 3 levels).
	NozzleCounts = []int64{1500741, 4052551, 7041082}
)

// Spec describes a synthetic graded mesh: a 3D hexahedral grid whose cells
// are assigned temporal levels by ranking them on a geometric refinement
// score (distance to the hot regions), with per-level quotas matching the
// requested census.
type Spec struct {
	Name string
	// Counts are the desired per-level cell counts; the realised mesh has
	// exactly round-proportional quotas over the actual grid size.
	Counts []int64
	// Aspect gives the x:y:z extent ratio of the grid.
	Aspect [3]float64
	// Score returns the refinement score of a point in the unit box scaled
	// by Aspect; lower scores get lower (finer) temporal levels.
	Score func(x, y, z float64) float64
}

// Cylinder generates the CYLINDER-like mesh at the given scale (1.0 = the
// paper's 6.4M cells; 0.01 = 64k cells). The hot core is a compact central
// region surrounded by concentric shells of increasing temporal level.
func Cylinder(scale float64) *Mesh {
	return BySpec(Spec{
		Name:   "CYLINDER",
		Counts: scaleCounts(CylinderCounts, scale),
		Aspect: [3]float64{2, 1, 1},
		Score: func(x, y, z float64) float64 {
			// Distance to the central machinery piece: a short axial
			// segment in the middle of the domain.
			return distToSegment(x, y, z, 0.9, 0.5, 0.5, 1.1, 0.5, 0.5)
		},
	})
}

// Cube generates the CUBE-like mesh: three non-contiguous hot spots inside a
// cube, the paper's worst-case geometry.
func Cube(scale float64) *Mesh {
	h := [][3]float64{{0.22, 0.25, 0.25}, {0.75, 0.55, 0.5}, {0.35, 0.8, 0.72}}
	return BySpec(Spec{
		Name:   "CUBE",
		Counts: scaleCounts(CubeCounts, scale),
		Aspect: [3]float64{1, 1, 1},
		Score: func(x, y, z float64) float64 {
			best := math.Inf(1)
			for _, p := range h {
				d := dist3(x, y, z, p[0], p[1], p[2])
				if d < best {
					best = d
				}
			}
			return best
		},
	})
}

// Nozzle generates the PPRIME_NOZZLE-like mesh: a jet plume downstream of a
// nozzle exit, refined along the jet axis (3 temporal levels).
func Nozzle(scale float64) *Mesh {
	return BySpec(Spec{
		Name:   "PPRIME_NOZZLE",
		Counts: scaleCounts(NozzleCounts, scale),
		Aspect: [3]float64{3, 1, 1},
		Score: func(x, y, z float64) float64 {
			// Jet: a conical region widening downstream of the exit at
			// x=0.9 (domain x ∈ [0,3]).
			d := distToSegment(x, y, z, 0.9, 0.5, 0.5, 2.2, 0.5, 0.5)
			// Widen tolerance downstream so the plume is a cone.
			cone := 0.08 * math.Max(0, x-0.9)
			return math.Max(0, d-cone)
		},
	})
}

// ByName returns the generator output for one of the three paper meshes
// ("CYLINDER", "CUBE", "PPRIME_NOZZLE"), case-sensitive. The scale must be
// positive and large enough that the generated grid has at least two cells:
// scaleCounts clamps every level to one cell, so an extreme down-scale would
// otherwise silently collapse to a degenerate 0- or 1-cell grid that no
// partitioner input should be built from.
func ByName(name string, scale float64) (*Mesh, error) {
	if !(scale > 0) || math.IsInf(scale, 0) { // !(x>0) also rejects NaN
		return nil, fmt.Errorf("mesh: scale %v for mesh %q, want a positive finite value", scale, name)
	}
	var m *Mesh
	switch name {
	case "CYLINDER":
		m = Cylinder(scale)
	case "CUBE":
		m = Cube(scale)
	case "PPRIME_NOZZLE":
		m = Nozzle(scale)
	default:
		return nil, fmt.Errorf("mesh: unknown mesh %q", name)
	}
	if n := m.NumCells(); n < 2 {
		return nil, fmt.Errorf("mesh: scale %v yields a degenerate %d-cell %s grid; increase the scale", scale, n, name)
	}
	return m, nil
}

// scaleCounts multiplies every count by scale, keeping a minimum of 1 cell
// per level so the level structure survives extreme down-scaling.
func scaleCounts(counts []int64, scale float64) []int64 {
	out := make([]int64, len(counts))
	for i, c := range counts {
		v := int64(math.Round(float64(c) * scale))
		if v < 1 {
			v = 1
		}
		out[i] = v
	}
	return out
}

// BySpec generates the mesh described by spec. The grid dimensions are chosen
// so the cell total approximates the census total while honouring the aspect
// ratio; per-level quotas are then redistributed over the actual total with
// the largest-remainder method, preserving the census fractions.
func BySpec(spec Spec) *Mesh {
	if len(spec.Counts) == 0 {
		panic("mesh: spec has no level counts")
	}
	if len(spec.Counts) > int(temporal.MaxSupportedLevel)+1 {
		panic("mesh: too many levels")
	}
	var total int64
	for _, c := range spec.Counts {
		if c < 0 {
			panic("mesh: negative level count")
		}
		total += c
	}
	nx, ny, nz := gridDims(total, spec.Aspect)
	n := nx * ny * nz
	quotas := apportion(spec.Counts, int64(n))

	m := &Mesh{
		Name:     spec.Name,
		Level:    make([]temporal.Level, n),
		Volume:   make([]float32, n),
		CX:       make([]float32, n),
		CY:       make([]float32, n),
		CZ:       make([]float32, n),
		MaxLevel: temporal.Level(len(spec.Counts) - 1),
	}

	// Pass 1: centroids and scores.
	score := make([]float32, n)
	sx, sy, sz := spec.Aspect[0]/float64(nx), spec.Aspect[1]/float64(ny), spec.Aspect[2]/float64(nz)
	id := 0
	minS, maxS := float32(math.Inf(1)), float32(math.Inf(-1))
	for i := 0; i < nx; i++ {
		x := (float64(i) + 0.5) * sx
		for j := 0; j < ny; j++ {
			y := (float64(j) + 0.5) * sy
			for k := 0; k < nz; k++ {
				z := (float64(k) + 0.5) * sz
				s := float32(spec.Score(x, y, z))
				score[id] = s
				m.CX[id], m.CY[id], m.CZ[id] = float32(x), float32(y), float32(z)
				if s < minS {
					minS = s
				}
				if s > maxS {
					maxS = s
				}
				id++
			}
		}
	}

	assignLevelsByRank(m.Level, score, minS, maxS, quotas)

	// Volumes consistent with the levels: coarser level ⇒ larger cell, with
	// a deterministic ±25% jitter for realism.
	for c := 0; c < n; c++ {
		j := 0.75 + 0.5*hash01(uint64(c))
		m.Volume[c] = float32(j * math.Pow(8, float64(m.Level[c])))
	}

	buildGridFaces(m, nx, ny, nz)
	return m
}

// gridDims picks grid dimensions whose product approximates total under the
// given aspect ratio, each at least 1.
func gridDims(total int64, aspect [3]float64) (nx, ny, nz int) {
	if total < 1 {
		total = 1
	}
	for i, a := range aspect {
		if a <= 0 {
			aspect[i] = 1
		}
	}
	base := math.Cbrt(float64(total) / (aspect[0] * aspect[1] * aspect[2]))
	nx = maxInt(1, int(math.Round(aspect[0]*base)))
	ny = maxInt(1, int(math.Round(aspect[1]*base)))
	nz = maxInt(1, int(math.Round(float64(total)/float64(nx*ny))))
	return nx, ny, nz
}

// apportion rescales quotas to sum exactly to total using the largest-
// remainder method, with every level keeping at least one cell when total
// allows.
func apportion(counts []int64, total int64) []int64 {
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum == 0 {
		sum = 1
	}
	out := make([]int64, len(counts))
	rem := make([]float64, len(counts))
	var used int64
	for i, c := range counts {
		exact := float64(c) * float64(total) / float64(sum)
		out[i] = int64(exact)
		rem[i] = exact - float64(out[i])
		used += out[i]
	}
	for used < total {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		out[best]++
		rem[best] = -1
		used++
	}
	// Guarantee non-empty levels if we have enough cells.
	if total >= int64(len(counts)) {
		for i := range out {
			for out[i] == 0 {
				// Steal from the largest level.
				big := 0
				for j := range out {
					if out[j] > out[big] {
						big = j
					}
				}
				out[big]--
				out[i]++
			}
		}
	}
	return out
}

// assignLevelsByRank assigns levels so that the quotas[τ] cells with the
// lowest scores get level 0, the next quota level 1, and so on — producing
// spatially nested level regions with exact per-level counts. It runs in
// O(n) using a histogram of scores plus per-boundary-bucket counters.
func assignLevelsByRank(level []temporal.Level, score []float32, minS, maxS float32, quotas []int64) {
	n := len(score)
	if n == 0 {
		return
	}
	const nbuck = 1 << 14
	span := float64(maxS - minS)
	if span <= 0 {
		span = 1
	}
	bucketOf := func(s float32) int {
		b := int(float64(s-minS) / span * nbuck)
		if b >= nbuck {
			b = nbuck - 1
		}
		if b < 0 {
			b = 0
		}
		return b
	}
	hist := make([]int64, nbuck)
	for _, s := range score {
		hist[bucketOf(s)]++
	}
	// For each bucket, determine the level of its cells. A bucket may
	// straddle a quota boundary; straddling buckets get a countdown of how
	// many of their cells (in id order) still belong to the lower level.
	bucketLevel := make([]temporal.Level, nbuck)
	straddle := make([]int64, nbuck) // cells of this bucket in level bucketLevel[b]; rest overflow to +1 chain
	cum := int64(0)
	lvl := 0
	boundary := quotas[0]
	for b := 0; b < nbuck; b++ {
		for lvl < len(quotas)-1 && cum >= boundary {
			lvl++
			boundary += quotas[lvl]
		}
		bucketLevel[b] = temporal.Level(lvl)
		if cum+hist[b] > boundary && lvl < len(quotas)-1 {
			straddle[b] = boundary - cum
		} else {
			straddle[b] = hist[b]
		}
		cum += hist[b]
	}
	// Remaining quota countdowns for straddling buckets while scanning.
	remain := make([]int64, nbuck)
	copy(remain, straddle)
	// quotaLeft tracks remaining per-level quotas for overflow chaining.
	quotaLeft := make([]int64, len(quotas))
	copy(quotaLeft, quotas)
	// Pre-consume the non-overflow parts.
	for b := 0; b < nbuck; b++ {
		quotaLeft[bucketLevel[b]] -= straddle[b]
	}
	for c := 0; c < n; c++ {
		b := bucketOf(score[c])
		l := bucketLevel[b]
		if remain[b] > 0 {
			remain[b]--
		} else {
			// Overflow: push to the next level that still has quota.
			l++
			for int(l) < len(quotas)-1 && quotaLeft[l] <= 0 {
				l++
			}
			if int(l) >= len(quotas) {
				l = temporal.Level(len(quotas) - 1)
			}
			quotaLeft[l]--
		}
		level[c] = l
	}
}

// buildGridFaces creates the 6-neighbour faces of an nx×ny×nz grid: interior
// faces first, then one boundary face per exposed cell side.
func buildGridFaces(m *Mesh, nx, ny, nz int) {
	id := func(i, j, k int) int32 { return int32((i*ny+j)*nz + k) }
	nInterior := (nx-1)*ny*nz + nx*(ny-1)*nz + nx*ny*(nz-1)
	nBoundary := 2 * (ny*nz + nx*nz + nx*ny)
	faces := make([]Face, 0, nInterior+nBoundary)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				c := id(i, j, k)
				if i+1 < nx {
					faces = append(faces, Face{c, id(i+1, j, k)})
				}
				if j+1 < ny {
					faces = append(faces, Face{c, id(i, j+1, k)})
				}
				if k+1 < nz {
					faces = append(faces, Face{c, id(i, j, k+1)})
				}
			}
		}
	}
	m.NumInteriorFaces = len(faces)
	m.BNx = make([]float32, 0, nBoundary)
	m.BNy = make([]float32, 0, nBoundary)
	m.BNz = make([]float32, 0, nBoundary)
	addB := func(c int32, nx, ny, nz float32) {
		faces = append(faces, Face{c, Boundary})
		m.BNx = append(m.BNx, nx)
		m.BNy = append(m.BNy, ny)
		m.BNz = append(m.BNz, nz)
	}
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			addB(id(i, j, 0), 0, 0, -1)
			addB(id(i, j, nz-1), 0, 0, 1)
		}
	}
	for i := 0; i < nx; i++ {
		for k := 0; k < nz; k++ {
			addB(id(i, 0, k), 0, -1, 0)
			addB(id(i, ny-1, k), 0, 1, 0)
		}
	}
	for j := 0; j < ny; j++ {
		for k := 0; k < nz; k++ {
			addB(id(0, j, k), -1, 0, 0)
			addB(id(nx-1, j, k), 1, 0, 0)
		}
	}
	m.Faces = faces
}

// ReassignLevels recomputes the temporal level of every cell from a new
// refinement score, keeping the geometry (cells, faces, volumes) unchanged.
// The quotas are re-apportioned from counts over the existing cell total, so
// the census fractions match counts. This models the slow evolution of
// temporal levels across iterations (a moving wake or jet): the paper's
// motivating scenario for *when* a decomposition must be recomputed.
func (m *Mesh) ReassignLevels(score func(x, y, z float64) float64, counts []int64) {
	n := m.NumCells()
	if n == 0 {
		return
	}
	quotas := apportion(counts, int64(n))
	sc := make([]float32, n)
	minS, maxS := float32(math.Inf(1)), float32(math.Inf(-1))
	for c := 0; c < n; c++ {
		s := float32(score(float64(m.CX[c]), float64(m.CY[c]), float64(m.CZ[c])))
		sc[c] = s
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	assignLevelsByRank(m.Level, sc, minS, maxS, quotas)
	m.MaxLevel = temporal.Level(len(counts) - 1)
	// The cell→face index (CellFaces) depends on the faces only, so it
	// stays valid; it must stay built too, because a solver's workers read
	// it concurrently and a lazy rebuild would race.
}

// Strip builds a 1D chain mesh with the given per-cell levels; a minimal
// fixture for task-graph and solver tests.
func Strip(levels []temporal.Level) *Mesh {
	n := len(levels)
	var max temporal.Level
	for _, l := range levels {
		if l > max {
			max = l
		}
	}
	m := &Mesh{
		Name:     "STRIP",
		Level:    append([]temporal.Level(nil), levels...),
		Volume:   make([]float32, n),
		CX:       make([]float32, n),
		CY:       make([]float32, n),
		CZ:       make([]float32, n),
		MaxLevel: max,
	}
	for c := 0; c < n; c++ {
		m.Volume[c] = float32(math.Pow(8, float64(levels[c])))
		m.CX[c] = float32(c) + 0.5
		m.CY[c], m.CZ[c] = 0.5, 0.5
	}
	for c := 0; c+1 < n; c++ {
		m.Faces = append(m.Faces, Face{int32(c), int32(c + 1)})
	}
	m.NumInteriorFaces = len(m.Faces)
	if n > 0 {
		m.Faces = append(m.Faces, Face{0, Boundary}, Face{int32(n - 1), Boundary})
		m.BNx = append(m.BNx, -1, 1)
		m.BNy = append(m.BNy, 0, 0)
		m.BNz = append(m.BNz, 0, 0)
	}
	return m
}

func dist3(x, y, z, px, py, pz float64) float64 {
	dx, dy, dz := x-px, y-py, z-pz
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// distToSegment returns the distance from (x,y,z) to segment (a)-(b).
func distToSegment(x, y, z, ax, ay, az, bx, by, bz float64) float64 {
	vx, vy, vz := bx-ax, by-ay, bz-az
	wx, wy, wz := x-ax, y-ay, z-az
	vv := vx*vx + vy*vy + vz*vz
	t := 0.0
	if vv > 0 {
		t = (wx*vx + wy*vy + wz*vz) / vv
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	return dist3(x, y, z, ax+t*vx, ay+t*vy, az+t*vz)
}

// hash01 maps an id to a deterministic pseudo-random value in [0,1).
func hash01(x uint64) float64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
