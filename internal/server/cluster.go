package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
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
func (s *Server) clusterRoute(w http.ResponseWriter, r *http.Request, req jobRequest, rawBody []byte) (int, bool) {
	cl := s.cluster
	if cl == nil || req.base().debugTrace {
		return 0, false
	}
	if _, ok := req.(*subtreeRequest); ok {
		return 0, false // subtree RPCs are already routed by their coordinator
	}
	if r.URL.Query().Get("async") == "1" {
		return 0, false // job ids are node-local; async jobs run where submitted
	}
	key := req.key()
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
		if payload, ok, err := cl.ProbeCache(r.Context(), owner, resultStoreKey(key), requestID, traceHeader); err == nil && ok {
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
	}
	if r.Uploaded != nil {
		fr.Mesh = cluster.MeshRef{TMSH: r.meshRaw}
	} else {
		fr.Mesh = cluster.MeshRef{Gen: r.MeshName, Scale: r.Scale}
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
	wire  cluster.SubtreeWire
	strat partition.Strategy
	// synth backs base(): job views and timeouts see the subtree as a small
	// partition job.
	synth PartitionRequest
}

func (r *subtreeRequest) base() *PartitionRequest { return &r.synth }

// key content-addresses the subtree task: mesh identity, strategy, options,
// tree position (first part, k, seed) and the exact vertex set.
func (r *subtreeRequest) key() cacheKey {
	h := sha256.New()
	h.Write([]byte("tempartd/subtree/v1\x00"))
	if len(r.wire.Mesh.TMSH) > 0 {
		digest := sha256.Sum256(r.wire.Mesh.TMSH)
		h.Write([]byte("tmsh\x00"))
		h.Write(digest[:])
	} else {
		fmt.Fprintf(h, "gen\x00%s\x00%x", r.wire.Mesh.Gen, math.Float64bits(r.wire.Mesh.Scale))
	}
	o := r.wire.Options
	fmt.Fprintf(h, "\x00strat=%s seed=%d tol=%x coarsen=%d init=%d passes=%d first=%d k=%d tseed=%d\x00",
		r.wire.Strategy, o.Seed, math.Float64bits(o.ImbalanceTol), o.CoarsenTo,
		o.InitTrials, o.RefinePasses, r.wire.FirstPart, r.wire.K, r.wire.Seed)
	h.Write(r.wire.Vertices)
	var key cacheKey
	h.Sum(key[:0])
	return key
}

// decodeSubtreeRequest parses and bounds-checks a subtree RPC body.
func decodeSubtreeRequest(raw []byte) (*subtreeRequest, error) {
	var wire cluster.SubtreeWire
	if err := json.Unmarshal(raw, &wire); err != nil {
		return nil, badRequest("invalid subtree JSON: %v", err)
	}
	strat, err := partition.ParseStrategy(wire.Strategy)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if len(wire.Mesh.TMSH) == 0 {
		if !knownGenerator(wire.Mesh.Gen) {
			return nil, badRequest("unknown mesh %q in subtree task", wire.Mesh.Gen)
		}
		if !(wire.Mesh.Scale > 0) || wire.Mesh.Scale > maxScale || math.IsNaN(wire.Mesh.Scale) {
			return nil, badRequest("subtree mesh scale %v out of range (0, %g]", wire.Mesh.Scale, maxScale)
		}
	}
	if wire.K < 1 || wire.FirstPart < 0 || wire.FirstPart+wire.K > maxK {
		return nil, badRequest("subtree part range [%d, %d+%d) out of bounds", wire.FirstPart, wire.FirstPart, wire.K)
	}
	if len(wire.Vertices) == 0 || len(wire.Vertices)%4 != 0 {
		return nil, badRequest("subtree vertex payload is %d bytes (empty or not a multiple of 4)", len(wire.Vertices))
	}
	o := wire.Options
	if o.InitTrials < 0 || o.InitTrials > maxInitTrials ||
		o.RefinePasses < 0 || o.RefinePasses > maxPasses ||
		o.CoarsenTo < 0 || o.CoarsenTo > 1<<30 {
		return nil, badRequest("subtree options out of range")
	}
	if o.ImbalanceTol != 0 && (o.ImbalanceTol < 1 || o.ImbalanceTol > 4 || math.IsNaN(o.ImbalanceTol)) {
		return nil, badRequest("subtree imbalance_tol = %v out of range [1, 4]", o.ImbalanceTol)
	}
	return &subtreeRequest{
		wire:  wire,
		strat: strat,
		synth: PartitionRequest{
			MeshName: wire.Mesh.Gen,
			Scale:    wire.Mesh.Scale,
			K:        wire.K,
			Strategy: strat.String(),
		},
	}, nil
}

// execute implements jobRequest: rebuild the dual graph from the mesh
// identity, run the subtree with the task's derived seed, and return the
// per-vertex assignments. The options arrive without parallelism on purpose
// — this node runs the subtree at its own width, and the bytes cannot tell.
func (r *subtreeRequest) execute(ctx context.Context, s *Server) ([]byte, time.Duration, *requestError) {
	var m *mesh.Mesh
	if len(r.wire.Mesh.TMSH) > 0 {
		var err error
		m, err = mesh.Decode(bytes.NewReader(r.wire.Mesh.TMSH))
		if err != nil {
			return nil, 0, &requestError{code: http.StatusBadRequest, msg: fmt.Sprintf("subtree mesh: %v", err)}
		}
	} else {
		var err error
		m, err = mesh.ByName(r.wire.Mesh.Gen, r.wire.Mesh.Scale)
		if err != nil {
			return nil, 0, &requestError{code: http.StatusBadRequest, msg: err.Error()}
		}
	}
	g, err := partition.StrategyGraph(m, r.strat)
	if err != nil {
		return nil, 0, &requestError{code: http.StatusBadRequest, msg: err.Error()}
	}
	verts, err := cluster.UnpackInt32s(r.wire.Vertices)
	if err != nil {
		return nil, 0, &requestError{code: http.StatusBadRequest, msg: err.Error()}
	}
	n := g.NumVertices()
	for _, v := range verts {
		if v < 0 || int(v) >= n {
			return nil, 0, &requestError{code: http.StatusBadRequest,
				msg: fmt.Sprintf("subtree vertex %d out of range [0, %d)", v, n)}
		}
	}
	opt := partition.Options{
		Seed:         r.wire.Options.Seed,
		ImbalanceTol: r.wire.Options.ImbalanceTol,
		CoarsenTo:    r.wire.Options.CoarsenTo,
		InitTrials:   r.wire.Options.InitTrials,
		RefinePasses: r.wire.Options.RefinePasses,
		Parallelism:  s.cfg.clampParallelism(0),
	}
	part := make([]int32, n)
	task := partition.SubtreeTask{Vertices: verts, FirstPart: r.wire.FirstPart, K: r.wire.K, Seed: r.wire.Seed}
	// On a sampled trace the job carries a recorder; a root span brackets the
	// subtree work so the coordinator's stitched trace shows this node's
	// contribution even if the pipeline below records nothing.
	span := obs.StartSpan(ctx, "server/subtree")
	if span.Active() {
		span.SetInt("first_part", int64(r.wire.FirstPart))
		span.SetInt("k", int64(r.wire.K))
		span.SetInt("vertices", int64(len(verts)))
		ctx = obs.ContextWithSpan(ctx, span)
	}
	start := time.Now()
	err = partition.PartitionSubtree(ctx, g, task, opt, part)
	span.End()
	if err != nil {
		return nil, 0, &requestError{code: http.StatusInternalServerError, msg: err.Error()}
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
	payload, err := json.Marshal(reply)
	if err != nil {
		return nil, 0, &requestError{code: http.StatusInternalServerError, msg: err.Error()}
	}
	return payload, elapsed, nil
}

// handleSubtree serves POST /v1/internal/subtree (registered only on
// cluster members).
func (s *Server) handleSubtree(w http.ResponseWriter, r *http.Request) int {
	raw, err := readRequestBody(r.Body, s.cfg.MaxBodyBytes)
	if err != nil {
		return writeDecodeError(w, err)
	}
	req, err := decodeSubtreeRequest(raw)
	if err != nil {
		return writeDecodeError(w, err)
	}
	s.cluster.CountSubtreeServed()
	return s.serveJob(w, r, req, nil)
}

// handleCacheProbe serves GET /v1/internal/cache/{key}: the peer-read path.
// A hit answers with the cached (or durably stored) payload; a miss is 404.
// It never computes anything.
func (s *Server) handleCacheProbe(w http.ResponseWriter, r *http.Request) int {
	keyHex := r.PathValue("key")
	key, ok := parseCacheKey(keyHex)
	if !ok {
		return writeError(w, http.StatusBadRequest, "malformed cache key")
	}
	payload, ok := s.cache.get(key)
	if !ok && s.store != nil {
		payload, ok = s.store.Get(store.NSResult, resultStoreKey(key))
		if ok {
			s.cache.put(key, payload)
		}
	}
	if !ok {
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

// parseCacheKey decodes the 64-hex-digit content address of a cache probe.
func parseCacheKey(hexKey string) (cacheKey, bool) {
	var key cacheKey
	if len(hexKey) != 2*len(key) {
		return key, false
	}
	for i := 0; i < len(key); i++ {
		hi, ok1 := hexNibble(hexKey[2*i])
		lo, ok2 := hexNibble(hexKey[2*i+1])
		if !ok1 || !ok2 {
			return key, false
		}
		key[i] = hi<<4 | lo
	}
	return key, true
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}
