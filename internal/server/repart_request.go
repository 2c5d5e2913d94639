package server

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"time"

	pmetrics "tempart/internal/metrics"
	"tempart/internal/partition"
	"tempart/internal/repart"
)

// maxMigrationPenalty bounds the refinement bias a request may ask for.
const maxMigrationPenalty = 100.0

// RepartitionRequest describes a warm-started incremental repartition: the
// usual mesh/k/strategy/options fields plus the parent assignment to start
// from — either by part_hash (content address of a result this daemon
// computed earlier) or inline.
type RepartitionRequest struct {
	PartitionRequest
	// ParentHash is the part_hash of a prior response; mutually exclusive
	// with Parent.
	ParentHash string `json:"parent_hash,omitempty"`
	// Parent is the explicit old assignment (one entry per cell).
	Parent []int32 `json:"parent,omitempty"`
	// Mode selects the repart strategy ("auto", "keep", "diffuse",
	// "refine", "scratch"). Empty means auto.
	Mode string `json:"mode,omitempty"`
	// MigrationPenalty tunes migration aversion (see repart.Options).
	MigrationPenalty float64 `json:"migration_penalty,omitempty"`

	mode repart.Mode
}

// RepartitionResponse is the cacheable body of a successful repartition.
type RepartitionResponse struct {
	Mesh         MeshInfo                  `json:"mesh"`
	K            int                       `json:"k"`
	Strategy     string                    `json:"strategy"`
	Mode         string                    `json:"mode"` // strategy actually used
	Seed         int64                     `json:"seed"`
	EdgeCut      int64                     `json:"edge_cut"`
	MaxImbalance float64                   `json:"max_imbalance"`
	Quality      pmetrics.PartitionQuality `json:"quality"`
	Migration    pmetrics.MigrationStats   `json:"migration"`
	ParentHash   string                    `json:"parent_hash,omitempty"`
	PartHash     string                    `json:"part_hash"`
	Part         []int32                   `json:"part"`
	// Eval scores the repartitioned assignment on a simulated cluster when
	// the request carried an "evaluate" spec. A "keep"-mode repartition
	// re-scoring its parent's assignment hits the daemon's graph cache
	// instead of rebuilding the parent's task graph.
	Eval *EvalResult `json:"eval,omitempty"`
	// Debug summarizes the recorded pipeline spans of a ?debug=trace request.
	Debug *DebugInfo `json:"debug,omitempty"`
}

// fromQuery implements jobRequest: an upload's repartition fields ride in the
// query next to the partition ones.
func (r *RepartitionRequest) fromQuery(q *query) {
	r.PartitionRequest.fromQuery(q)
	q.read("parent_hash", &r.ParentHash)
	q.read("mode", &r.Mode)
	q.read("migration_penalty", &r.MigrationPenalty)
}

func (r *RepartitionRequest) kind() string { return kindRepartition }

// validate implements jobRequest: the partition fields, then the warm-start
// ones.
func (r *RepartitionRequest) validate() error {
	if err := r.PartitionRequest.validate(); err != nil {
		return err
	}
	switch r.strat {
	case partition.SCOC, partition.MCTL, partition.UnitCells:
	default:
		return badRequest("strategy %s has no graph constraints to repartition under (want SC_OC, MC_TL or UNIT)", r.Strategy)
	}
	if (r.ParentHash == "") == (len(r.Parent) == 0) {
		return badRequest("exactly one of parent_hash and parent must be set")
	}
	for i, p := range r.Parent {
		if p < 0 || int(p) >= r.K {
			return badRequest("parent[%d] = %d outside [0, %d)", i, p, r.K)
		}
	}
	mode, err := repart.ParseMode(cmp.Or(r.Mode, "auto"))
	if err != nil {
		return badRequest("%v", err)
	}
	r.mode = mode
	r.Mode = mode.String()
	if math.IsNaN(r.MigrationPenalty) || r.MigrationPenalty < -1 || r.MigrationPenalty > maxMigrationPenalty {
		return badRequest("migration_penalty = %v out of range [-1, %g]", r.MigrationPenalty, maxMigrationPenalty)
	}
	return nil
}

// key extends the partition content address with the repartition inputs; the
// parent identity (hash or inline assignment) is part of the address, so two
// warm starts from different parents never collide.
func (r *RepartitionRequest) key() cacheKey {
	base := r.PartitionRequest.key()
	h := sha256.New()
	h.Write([]byte("tempartd/repart/v1\x00"))
	h.Write(base[:])
	fmt.Fprintf(h, "mode=%s pen=%x\x00", r.Mode, math.Float64bits(r.MigrationPenalty))
	if r.ParentHash != "" {
		fmt.Fprintf(h, "hash\x00%s", r.ParentHash)
	} else {
		h.Write([]byte("inline\x00"))
		var b [4]byte
		for _, p := range r.Parent {
			binary.LittleEndian.PutUint32(b[:], uint32(p))
			h.Write(b[:])
		}
	}
	var key cacheKey
	h.Sum(key[:0])
	return key
}

// execute implements jobRequest: resolve the mesh and parent assignment,
// repartition incrementally, and report the migration alongside the usual
// quality axes.
func (r *RepartitionRequest) execute(ctx context.Context, s *Server) ([]byte, time.Duration, *requestError) {
	m, rerr := r.resolveMesh()
	if rerr != nil {
		return nil, 0, rerr
	}

	var parentPart []int32
	if r.ParentHash != "" {
		parent, rerr := s.loadPartition(r.ParentHash)
		if rerr != nil {
			return nil, 0, rerr
		}
		if parent.NumParts != r.K {
			return nil, 0, badRequest("parent partition has k = %d, request wants %d", parent.NumParts, r.K)
		}
		parentPart = parent.Part
	} else {
		parentPart = r.Parent
	}
	if len(parentPart) != m.NumCells() {
		return nil, 0, badRequest("parent assignment covers %d cells, mesh has %d", len(parentPart), m.NumCells())
	}

	g, err := partition.StrategyGraph(m, r.strat)
	if err != nil {
		return nil, 0, badRequest("%v", err)
	}
	old := partition.NewResult(g, parentPart, r.K)
	start := time.Now()
	res, err := repart.Repartition(ctx, g, old, repart.Options{
		Mode:             r.mode,
		Part:             s.partitionOptions(r.Options),
		MigrationPenalty: r.MigrationPenalty,
		MigBytes:         repart.MeshMigrationBytes(m),
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, 0, errorf(http.StatusInternalServerError, "%v", err)
	}
	mode := res.Mode.String()
	s.metrics.repartRuns.Inc(mode)
	s.metrics.repartTimes.Observe(elapsed.Seconds(), mode)
	s.metrics.migrationBytes.Observe(float64(res.Stats.MovedBytes))
	return r.respond(ctx, s, m, res.Result, elapsed, func(t resultTail) any {
		return &RepartitionResponse{
			Mesh:         t.mesh,
			K:            r.K,
			Strategy:     r.Strategy,
			Mode:         mode,
			Seed:         r.Options.Seed,
			EdgeCut:      res.EdgeCut,
			MaxImbalance: res.MaxImbalance(),
			Quality:      pmetrics.EvaluatePartition(m, res.Result, r.Strategy),
			Migration:    res.Stats,
			ParentHash:   r.ParentHash,
			PartHash:     t.partHash,
			Part:         res.Part,
			Eval:         t.eval,
			Debug:        t.debug,
		}
	})
}
