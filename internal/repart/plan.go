package repart

import (
	"fmt"

	"tempart/internal/mesh"
	"tempart/internal/metrics"
)

// Move is one cell changing domains.
type Move struct {
	Cell  int32 `json:"cell"`
	From  int32 `json:"from"`
	To    int32 `json:"to"`
	Bytes int64 `json:"bytes"`
}

// MigrationPlan is the executable description of a repartition: which cells
// each domain must ship where, and the resulting traffic matrix summarised
// in Stats. Sends[p] lists the cells leaving domain p in ascending cell
// order (deterministic, so two processes planning independently agree);
// Recvs[p] lists the cells arriving at p.
type MigrationPlan struct {
	Moves []Move                 `json:"moves"`
	Sends [][]int32              `json:"sends"`
	Recvs [][]int32              `json:"recvs"`
	Stats metrics.MigrationStats `json:"stats"`
}

// Plan diffs two assignments over the same cells into a migration plan.
// bytes[v] is the serialized size of cell v (nil counts cells as one byte
// each, as in metrics.ComputeMigrationStats).
func Plan(oldPart, newPart []int32, k int, bytes []int64) (*MigrationPlan, error) {
	if len(oldPart) != len(newPart) {
		return nil, fmt.Errorf("repart: plan over %d old vs %d new cells", len(oldPart), len(newPart))
	}
	if bytes != nil && len(bytes) != len(oldPart) {
		return nil, fmt.Errorf("repart: %d byte sizes for %d cells", len(bytes), len(oldPart))
	}
	p := &MigrationPlan{
		Sends: make([][]int32, k),
		Recvs: make([][]int32, k),
		Stats: metrics.ComputeMigrationStats(oldPart, newPart, k, bytes),
	}
	for v := range oldPart {
		from, to := oldPart[v], newPart[v]
		if from == to {
			continue
		}
		if from < 0 || int(from) >= k || to < 0 || int(to) >= k {
			return nil, fmt.Errorf("repart: cell %d moves %d→%d outside [0,%d)", v, from, to, k)
		}
		var b int64 = 1
		if bytes != nil {
			b = bytes[v]
		}
		p.Moves = append(p.Moves, Move{Cell: int32(v), From: from, To: to, Bytes: b})
		p.Sends[from] = append(p.Sends[from], int32(v))
		p.Recvs[to] = append(p.Recvs[to], int32(v))
	}
	return p, nil
}

// Serialized sizes used by MeshMigrationBytes. A migrating cell ships its
// level (1), volume (4) and centroid (3×4); each incident face contributes
// its two cell ids (2×4), area (4) and geometric payload (12), halved for
// interior faces since the face stays with one of its two cells.
const (
	cellBytes = 1 + 4 + 12
	faceBytes = 8 + 4 + 12
)

// MeshMigrationBytes estimates, per cell, the bytes that must move when the
// cell changes domain: its own state plus its share of incident face state.
// It is the default MigBytes / Plan weighting for mesh-backed graphs.
func MeshMigrationBytes(m *mesh.Mesh) []int64 {
	n := m.NumCells()
	out := make([]int64, n)
	for v := int32(0); v < int32(n); v++ {
		b := int64(cellBytes)
		for _, f := range m.CellFaces(v) {
			if m.Faces[f].IsBoundary() {
				b += faceBytes
			} else {
				b += faceBytes / 2
			}
		}
		out[v] = b
	}
	return out
}
