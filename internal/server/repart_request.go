package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"tempart/internal/mesh"
	pmetrics "tempart/internal/metrics"
	"tempart/internal/obs"
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

// decodeRepartitionRequest parses a POST /v1/repartition body. The same two
// content types as /v1/partition are accepted; octet-stream uploads take the
// repartition fields as query parameters (parent_hash, mode,
// migration_penalty) alongside the partition ones.
func decodeRepartitionRequest(contentType string, query url.Values, body io.Reader, maxBody int64) (*RepartitionRequest, error) {
	mt := contentType
	if parsed, _, err := mime.ParseMediaType(contentType); err == nil {
		mt = parsed
	}
	var req RepartitionRequest
	switch {
	case mt == "application/octet-stream" || mt == "application/x-tmsh":
		base, err := decodePartitionRequest(contentType, query, body, maxBody)
		if err != nil {
			return nil, err
		}
		req.PartitionRequest = *base
		req.ParentHash = query.Get("parent_hash")
		req.Mode = query.Get("mode")
		if s := query.Get("migration_penalty"); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, badRequest("query migration_penalty: %v", err)
			}
			req.MigrationPenalty = v
		}
	case mt == "application/json" || mt == "application/x-www-form-urlencoded" || mt == "":
		limited := &io.LimitedReader{R: body, N: maxBody + 1}
		dec := json.NewDecoder(limited)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return nil, badRequest("invalid request JSON: %v", err)
		}
		if dec.More() {
			return nil, badRequest("trailing data after request JSON")
		}
		if err := req.PartitionRequest.validate(); err != nil {
			return nil, err
		}
	default:
		return nil, &requestError{code: http.StatusUnsupportedMediaType,
			msg: fmt.Sprintf("unsupported content type %q (want application/json or application/octet-stream)", contentType)}
	}
	if err := req.validateRepart(); err != nil {
		return nil, err
	}
	return &req, nil
}

// validateRepart checks the repartition-specific fields (the embedded
// partition fields are validated by PartitionRequest.validate).
func (r *RepartitionRequest) validateRepart() error {
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
	mode, err := repart.ParseMode(orDefault(r.Mode, "auto"))
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

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
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

// repartConstraints maps the validated strategy to the dual-graph constraint
// kind (graph-based strategies only — enforced by validateRepart).
func (r *RepartitionRequest) repartConstraints() mesh.ConstraintKind {
	switch r.strat {
	case partition.MCTL:
		return mesh.PerLevel
	case partition.UnitCells:
		return mesh.Unit
	default:
		return mesh.SingleCost
	}
}

// execute implements jobRequest: resolve the mesh and parent assignment,
// repartition incrementally, store the new result under its content hash,
// and report the migration alongside the usual quality axes.
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
			return nil, 0, &requestError{code: http.StatusBadRequest,
				msg: fmt.Sprintf("parent partition has k = %d, request wants %d", parent.NumParts, r.K)}
		}
		parentPart = parent.Part
	} else {
		parentPart = r.Parent
	}
	if len(parentPart) != m.NumCells() {
		return nil, 0, &requestError{code: http.StatusBadRequest,
			msg: fmt.Sprintf("parent assignment covers %d cells, mesh has %d", len(parentPart), m.NumCells())}
	}

	g := m.DualGraph(mesh.DualGraphOptions{Constraints: r.repartConstraints()})
	old := partition.NewResult(g, parentPart, r.K)
	popt := r.partitionOptions()
	popt.Parallelism = s.cfg.clampParallelism(popt.Parallelism)
	start := time.Now()
	res, err := repart.Repartition(ctx, g, old, repart.Options{
		Mode:             r.mode,
		Part:             popt,
		MigrationPenalty: r.MigrationPenalty,
		MigBytes:         repart.MeshMigrationBytes(m),
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, 0, &requestError{code: http.StatusInternalServerError, msg: err.Error()}
	}
	mode := res.Mode.String()
	s.metrics.repartRuns.Inc(mode)
	s.metrics.repartTimes.Observe(elapsed.Seconds(), mode)
	s.metrics.migrationBytes.Observe(float64(res.Stats.MovedBytes))

	partHash, rerr := s.storePartition(ctx, res.Result)
	if rerr != nil {
		return nil, 0, rerr
	}
	var evalRes *EvalResult
	if r.Evaluate != nil {
		evalRes, rerr = s.runEval(ctx, r.Evaluate, m, r.evalMeshID(), res.Part, r.K)
		if rerr != nil {
			return nil, 0, rerr
		}
	}
	// Gated on the explicit flag, not the recorder: sampled repartitions keep
	// the canonical cacheable payload (see PartitionRequest.execute).
	var dbg *DebugInfo
	if r.debugTrace {
		dbg = debugInfo(obs.FromContext(ctx))
	}
	payload, err := json.Marshal(&RepartitionResponse{
		Mesh: MeshInfo{
			Name:     m.Name,
			Cells:    m.NumCells(),
			MaxLevel: int(m.MaxLevel),
		},
		K:            r.K,
		Strategy:     r.Strategy,
		Mode:         res.Mode.String(),
		Seed:         r.Options.Seed,
		EdgeCut:      res.EdgeCut,
		MaxImbalance: res.MaxImbalance(),
		Quality:      pmetrics.EvaluatePartition(m, res.Result, r.Strategy),
		Migration:    res.Stats,
		ParentHash:   r.ParentHash,
		PartHash:     partHash,
		Part:         res.Part,
		Eval:         evalRes,
		Debug:        dbg,
	})
	if err != nil {
		return nil, 0, &requestError{code: http.StatusInternalServerError, msg: err.Error()}
	}
	return payload, elapsed, nil
}
