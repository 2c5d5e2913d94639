package metrics

// MigrationStats quantifies the data movement a repartition implies: every
// cell whose domain changes must ship its serialized state (cell payload plus
// incident face data) from the old owner to the new one. Minimising this
// volume — not just the edge cut of the new partition — is the objective of
// incremental repartitioning (internal/repart).
type MigrationStats struct {
	// TotalCells is the number of cells in the mesh.
	TotalCells int `json:"total_cells"`
	// MovedCells is the number of cells whose domain changed.
	MovedCells int `json:"moved_cells"`
	// TotalBytes is the serialized size of all cells.
	TotalBytes int64 `json:"total_bytes"`
	// MovedBytes is the serialized size of the cells that move.
	MovedBytes int64 `json:"moved_bytes"`
	// SendBytes[p] is the volume domain p ships out; RecvBytes[p] the volume
	// it takes in. Their totals both equal MovedBytes when every part label
	// lies in [0, k); cells with out-of-range labels still count toward
	// MovedCells/MovedBytes but are excluded from the per-domain volumes.
	SendBytes []int64 `json:"send_bytes,omitempty"`
	RecvBytes []int64 `json:"recv_bytes,omitempty"`
	// MaxFlowBytes is max_p(SendBytes[p] + RecvBytes[p]) — the migration
	// bottleneck, since domains exchange state concurrently.
	MaxFlowBytes int64 `json:"max_flow_bytes"`
}

// ComputeMigrationStats compares two assignments over the same cells.
// bytes[v] is the serialized size of cell v; a nil bytes counts every cell as
// one byte, making the byte totals equal the cell counts.
func ComputeMigrationStats(oldPart, newPart []int32, k int, bytes []int64) MigrationStats {
	s := MigrationStats{
		TotalCells: len(oldPart),
		SendBytes:  make([]int64, k),
		RecvBytes:  make([]int64, k),
	}
	for v := range oldPart {
		var b int64 = 1
		if bytes != nil {
			b = bytes[v]
		}
		s.TotalBytes += b
		if oldPart[v] == newPart[v] {
			continue
		}
		s.MovedCells++
		s.MovedBytes += b
		if from := oldPart[v]; from >= 0 && int(from) < k {
			s.SendBytes[from] += b
		}
		if to := newPart[v]; to >= 0 && int(to) < k {
			s.RecvBytes[to] += b
		}
	}
	for p := 0; p < k; p++ {
		if flow := s.SendBytes[p] + s.RecvBytes[p]; flow > s.MaxFlowBytes {
			s.MaxFlowBytes = flow
		}
	}
	return s
}
