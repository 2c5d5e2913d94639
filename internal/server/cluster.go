package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"time"

	"tempart/internal/cluster"
	"tempart/internal/mesh"
	"tempart/internal/obs"
	"tempart/internal/partition"
	"tempart/internal/store"
)

// This file wires internal/cluster through the daemon. With Config.Cluster
// set the daemon becomes one shard of a fleet:
//
//   - requests whose content address hashes to another member are forwarded
//     there (one hop, guarded by X-Tempartd-Forwarded), so identical
//     concurrent requests anywhere in the fleet land in one singleflight on
//     the owner, and the fleet's caches shard instead of duplicating;
//   - forwarded 200 payloads are cached locally too (peer-replicated
//     caching): the next identical request on this node is a local hit;
//   - a node computing a key it does not own (hop-guarded arrivals) probes
//     the owner's cache first — the owner may have computed it already;
//   - large eligible requests run in coordinator mode: the top of the
//     bisection tree locally, subtrees fanned to peers over POST
//     /v1/internal/subtree, results stitched byte-identically;
//   - subtree RPCs run through the same job machinery as client requests
//     (admission, singleflight, result cache, durable store), so remotely
//     computed subtrees land in the peer's provenance chain under the peer's
//     node id — cross-node provenance.
//
// Without a cluster every hook here is a nil check and the daemon behaves
// exactly as a single node.

// clusterRoute consults the ring before a request is admitted locally. It
// reports (status, true) when it fully answered the exchange (forwarded to
// the owner, or served from the owner's cache); (0, false) means "compute
// locally". Peer trouble never surfaces to the client: the fallback is
// always local computation.
func (s *Server) clusterRoute(w http.ResponseWriter, r *http.Request, req jobRequest, key cacheKey, rawBody []byte) (int, bool) {
	cl := s.cluster
	if cl == nil || req.base().debugTrace {
		return 0, false
	}
	if req.kind() == kindSubtree {
		return 0, false // subtree RPCs are already routed by their coordinator
	}
	if r.URL.Query().Get("async") == "1" {
		return 0, false // job ids are node-local; async jobs run where submitted
	}
	if cl.OwnsSelf([32]byte(key)) {
		return 0, false
	}
	owner := cl.Owner([32]byte(key))
	requestID := w.Header().Get("X-Request-Id")
	traceHeader := ""
	if tc := req.base().trace; tc.Valid() {
		traceHeader = tc.Header()
	}

	if r.Header.Get(cluster.HeaderForwarded) != "" {
		// Hop guard: this request was already forwarded once, so it is never
		// forwarded again — but the sender disagreed with us about ownership
		// (membership skew), so before computing a key we don't own, probe
		// the member we think owns it.
		if payload, ok, err := cl.ProbeCache(r.Context(), owner, key.hex(), requestID, traceHeader); err == nil && ok {
			s.cache.put(key, payload)
			return writePayload(w, "peer", payload), true
		}
		return 0, false
	}

	res, err := cl.Forward(r.Context(), owner, r.URL.Path, r.URL.RawQuery, r.Header.Get("Content-Type"), requestID, traceHeader, rawBody)
	if err != nil {
		// Owner unreachable: degraded but correct — compute locally.
		return 0, false
	}
	if res.Status == http.StatusOK {
		// Peer-replicated caching: the owner's answer is this node's answer
		// for every future identical request.
		s.cache.put(key, res.Body)
	}
	w.Header().Set("X-Tempartd-Cluster", "forwarded;peer="+owner.ID)
	if res.CacheHeader != "" {
		w.Header().Set("X-Tempartd-Cache", res.CacheHeader)
	}
	ct := res.ContentType
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(res.Status)
	_, _ = w.Write(res.Body)
	return res.Status, true
}

// fanoutDecompose attempts coordinator mode for a partition request: split
// the bisection tree, fan subtrees across the fleet, stitch. It returns nil
// whenever the request is ineligible or the fan-out could not start — the
// caller then computes locally, so this is a pure fast-path.
func (s *Server) fanoutDecompose(ctx context.Context, r *PartitionRequest, m *mesh.Mesh, opt partition.Options) *partition.Result {
	cl := s.cluster
	if cl == nil || r.K < 2 {
		return nil
	}
	// Only the deterministic single-trial recursive-bisection path splits
	// into independent subtrees; trials and direct k-way stay local.
	if r.Options.Method != "rb" || r.Options.Trials > 1 {
		return nil
	}
	if m.NumCells() < cl.FanoutMinCells() || cl.HealthyPeerCount() == 0 {
		return nil
	}
	g, err := partition.StrategyGraph(m, r.strat)
	if err != nil {
		return nil // geometric strategy: no dual graph, no subtrees
	}
	fr := cluster.FanoutRequest{
		Strategy: r.Strategy,
		Wire: cluster.WireOptions{
			Seed:         r.Options.Seed,
			ImbalanceTol: r.Options.ImbalanceTol,
			CoarsenTo:    r.Options.CoarsenTo,
			InitTrials:   r.Options.InitTrials,
			RefinePasses: r.Options.RefinePasses,
		},
		Options:   opt,
		K:         r.K,
		RequestID: r.requestID,
		// Traced fan-outs (debug or sampled) ship the trace context on every
		// subtree RPC; peers run sampled subtrees with a recorder and the
		// coordinator grafts their span snapshots under its fan-out span.
		Trace: r.trace,
		Mesh:  r.wire(),
	}
	res, err := cl.FanoutPartition(ctx, g, fr)
	if err != nil {
		return nil
	}
	return res
}

// subtreeRequest is the job form of POST /v1/internal/subtree: one node of a
// remote coordinator's bisection tree. Running it through the standard job
// machinery buys admission control, singleflight (two coordinators fanning
// the same request dedup here), the result cache, and durable persistence —
// the subtree lands in this node's provenance chain under this node's id.
type subtreeRequest struct {
	cluster.SubtreeWire
	// synth backs base(): job views, timeouts and manifests see the subtree
	// as a small partition job over the same mesh, strategy and options.
	synth PartitionRequest
}

func (r *subtreeRequest) kind() string            { return kindSubtree }
func (r *subtreeRequest) base() *PartitionRequest { return &r.synth }

// fromQuery implements jobRequest: subtree tasks travel as JSON only.
func (r *subtreeRequest) fromQuery(q *query) {
	q.err = errorf(http.StatusUnsupportedMediaType, "subtree tasks are JSON only")
}

// validate implements jobRequest: the mesh, k, strategy and options pass the
// partition checks; the part range and the vertex payload are the
// subtree's own. K is in [1, maxK] before the range check, so it cannot
// overflow.
func (r *subtreeRequest) validate() error {
	m, err := meshFromWire(r.Mesh)
	if err != nil {
		return err
	}
	o := r.Options
	r.synth = PartitionRequest{meshRef: m, K: r.K, Strategy: r.Strategy, Options: OptionsSpec{
		Seed: o.Seed, ImbalanceTol: o.ImbalanceTol, CoarsenTo: o.CoarsenTo,
		InitTrials: o.InitTrials, RefinePasses: o.RefinePasses,
	}}
	if err := r.synth.validate(); err != nil {
		return err
	}
	if r.FirstPart < 0 || r.FirstPart > maxK-r.K {
		return badRequest("subtree part range [%d, %d+%d) out of bounds", r.FirstPart, r.FirstPart, r.K)
	}
	if len(r.Vertices) == 0 || len(r.Vertices)%4 != 0 {
		return badRequest("subtree vertex payload is %d bytes (empty or not a multiple of 4)", len(r.Vertices))
	}
	return nil
}

// describe implements jobRequest.
func (r *subtreeRequest) describe(in map[string]any) {
	r.synth.describe(in)
	in["first_part"] = r.FirstPart
	in["subtree_seed"] = r.Seed
}

// key content-addresses the subtree task: mesh identity, strategy, options,
// tree position (first part, k, seed) and the exact vertex set.
func (r *subtreeRequest) key() cacheKey {
	h := sha256.New()
	h.Write([]byte("tempartd/subtree/v1\x00"))
	if r.synth.uploaded != nil {
		h.Write([]byte("tmsh\x00"))
		h.Write(r.synth.digest[:])
	} else {
		fmt.Fprintf(h, "gen\x00%s\x00%x", r.Mesh.Gen, math.Float64bits(r.Mesh.Scale))
	}
	o := r.Options
	fmt.Fprintf(h, "\x00strat=%s seed=%d tol=%x coarsen=%d init=%d passes=%d first=%d k=%d tseed=%d\x00",
		r.Strategy, o.Seed, math.Float64bits(o.ImbalanceTol), o.CoarsenTo,
		o.InitTrials, o.RefinePasses, r.FirstPart, r.K, r.Seed)
	h.Write(r.Vertices)
	var key cacheKey
	h.Sum(key[:0])
	return key
}

// execute implements jobRequest: rebuild the dual graph from the mesh
// identity, run the subtree with the task's derived seed, and return the
// per-vertex assignments. The options arrive without parallelism on purpose
// — this node runs the subtree at its own width, and the bytes cannot tell.
func (r *subtreeRequest) execute(ctx context.Context, s *Server) ([]byte, time.Duration, *requestError) {
	m, rerr := r.synth.resolveMesh()
	if rerr != nil {
		return nil, 0, rerr
	}
	g, err := partition.StrategyGraph(m, r.synth.strat)
	if err != nil {
		return nil, 0, badRequest("%v", err)
	}
	verts, err := cluster.UnpackInt32s(r.Vertices)
	if err != nil {
		return nil, 0, badRequest("%v", err)
	}
	n := g.NumVertices()
	for _, v := range verts {
		if v < 0 || int(v) >= n {
			return nil, 0, badRequest("subtree vertex %d out of range [0, %d)", v, n)
		}
	}
	part := make([]int32, n)
	task := partition.SubtreeTask{Vertices: verts, FirstPart: r.FirstPart, K: r.K, Seed: r.Seed}
	// On a sampled trace the job carries a recorder; a root span brackets the
	// subtree work so the coordinator's stitched trace shows this node's
	// contribution even if the pipeline below records nothing.
	span := obs.StartSpan(ctx, "server/subtree")
	if span.Active() {
		span.SetInt("first_part", int64(r.FirstPart))
		span.SetInt("k", int64(r.K))
		span.SetInt("vertices", int64(len(verts)))
		ctx = obs.ContextWithSpan(ctx, span)
	}
	start := time.Now()
	err = partition.PartitionSubtree(ctx, g, task, s.partitionOptions(r.synth.Options), part)
	span.End()
	if err != nil {
		return nil, 0, errorf(http.StatusInternalServerError, "%v", err)
	}
	elapsed := time.Since(start)
	vals := make([]int32, len(verts))
	for i, v := range verts {
		vals[i] = part[v]
	}
	reply := &cluster.SubtreeReply{
		NodeID: s.cfg.NodeID,
		Parts:  cluster.PackInt32s(vals),
	}
	if rec := obs.FromContext(ctx); rec.Enabled() {
		// Ship the span snapshot home for stitching. This payload is private
		// (never cached or persisted — see serveJob's sampled-subtree path),
		// so the spans poison nothing.
		reply.Spans = rec.Snapshot()
	}
	return marshalPayload(reply, elapsed)
}

// handleCacheProbe serves GET /v1/internal/cache/{key}: the peer-read path.
// A hit answers with the cached (or durably stored) payload; a miss is 404.
// It never computes anything.
func (s *Server) handleCacheProbe(w http.ResponseWriter, r *http.Request) int {
	raw, err := hex.DecodeString(r.PathValue("key"))
	if err != nil || len(raw) != len(cacheKey{}) {
		return writeError(w, http.StatusBadRequest, "malformed cache key")
	}
	payload, _ := s.readThrough(s.cache, store.NSResult, cacheKey(raw))
	if payload == nil {
		return writeError(w, http.StatusNotFound, "not cached")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
	return http.StatusOK
}

// handleClusterStatus serves GET /v1/cluster/status: this member's view of
// the fleet (membership, per-peer breaker states, fan-out gate).
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) int {
	return writeJSON(w, http.StatusOK, s.cluster.Status())
}
