// Package server implements tempartd, the partition-as-a-service daemon:
// an HTTP front-end over internal/core.Decompose with a bounded worker
// pool, FIFO admission queue (429 + Retry-After on overflow), singleflight
// deduplication of identical in-flight requests, a content-addressed LRU
// result cache (SHA-256 of mesh bytes + canonicalized options), request
// cancellation threaded down into the multilevel partitioner, and a
// Prometheus-format observability surface.
//
// Endpoints:
//
//	POST   /v1/partition        run a partition job (sync; ?async=1 for a job id)
//	POST   /v1/repartition      warm-started incremental repartition
//	GET    /v1/jobs/{id}        job status; embeds the result when done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/meshes           the named generators the daemon can serve
//	GET    /buildinfo           module version, VCS revision, Go version
//	GET    /healthz             liveness (503 while draining)
//	GET    /metrics             Prometheus text format
//
// Every instrumented response carries an X-Request-Id header (echoing the
// client's, or generated); Config.AccessLog receives one structured line per
// exchange. Partition and repartition requests accept ?debug=trace: the job
// then runs with a private span recorder, bypasses the result cache, and the
// response gains a "debug" block with per-phase timings and counters. The
// per-phase totals of traced requests also feed the tempartd_pipeline_*
// series on /metrics.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tempart/internal/cluster"
	"tempart/internal/eval"
	"tempart/internal/mesh"
	"tempart/internal/obs"
	"tempart/internal/store"
)

// Config sizes the daemon. Zero values take the documented defaults.
type Config struct {
	// Workers is the partition worker-pool size. Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds the FIFO admission queue; a full queue answers 429
	// with Retry-After. Default 64.
	QueueDepth int
	// CacheBytes budgets the content-addressed result cache. Default 256 MiB.
	CacheBytes int64
	// PartStoreBytes budgets the partition store (encoded results kept for
	// repartition warm starts, addressed by part_hash). Default 128 MiB.
	PartStoreBytes int64
	// MaxBodyBytes caps request bodies (mesh uploads). Default 64 MiB.
	MaxBodyBytes int64
	// DefaultTimeout caps per-job execution; requests may only shorten it.
	// Default 5 minutes.
	DefaultTimeout time.Duration
	// JobRetention is how many finished jobs stay queryable. Default 1024.
	JobRetention int
	// MaxParallelism caps the intra-request worker goroutines of the
	// partitioner (partition.Options.Parallelism); requests may only lower
	// it. The default, max(1, GOMAXPROCS/Workers), composes with the
	// admission queue's worker pool: Workers concurrent jobs × the
	// per-request cap stays near the core count instead of oversubscribing.
	MaxParallelism int
	// AccessLog, when non-nil, receives one structured line per instrumented
	// HTTP exchange (method, path, endpoint label, status, cache tier from
	// X-Tempartd-Cache — hit, store, miss, peer or empty —, duration,
	// request id). Nil disables access logging entirely.
	AccessLog *slog.Logger

	// TraceSampleRate is the flight recorder's head-sampling rate in [0, 1]:
	// the fraction of fresh (non-debug, non-peer-hop) jobs that run with a
	// span recorder and land in the /v1/traces ring. 0 (the default) keeps
	// only explicit ?debug=trace requests; sampling never changes response
	// bytes.
	TraceSampleRate float64
	// TraceRingSize is how many completed request traces the flight recorder
	// retains (plus the slowest seen, pinned). Default 64.
	TraceRingSize int

	// NodeID names this daemon in a fleet: it stamps run manifests, subtree
	// replies and (via store.Options.NodeID) provenance entries. Empty for a
	// single-node daemon.
	NodeID string
	// Cluster, when non-nil, makes the daemon one shard of a static-
	// membership fleet: content-addressed requests route to owner shards,
	// eligible large requests fan their bisection subtrees across peers, and
	// the /v1/internal/* and /v1/cluster/status endpoints come alive. Nil
	// keeps the daemon fully single-node.
	Cluster *cluster.Cluster

	// Store, when non-nil, is the daemon's durability tier: uploaded meshes,
	// partition results and response payloads persist to it on write (batched
	// commits, hash-chained provenance), the in-memory LRUs become
	// read-through caches over it, and async jobs journal their lifecycle so
	// a restart over the same store resumes interrupted work. The server uses
	// the store but does not own it: callers Close it after Shutdown.
	Store *store.Store

	// execGate, when set, runs inside the worker before partitioning; tests
	// use it to hold jobs at a deterministic point.
	execGate func(context.Context, *PartitionRequest) error
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = goruntime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.PartStoreBytes <= 0 {
		c.PartStoreBytes = 128 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 1024
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = goruntime.GOMAXPROCS(0) / c.Workers
		if c.MaxParallelism < 1 {
			c.MaxParallelism = 1
		}
	}
	return c
}

// clampParallelism resolves a request's parallelism against the server cap:
// 0 (the default) takes the cap itself, anything else may only lower it.
func (c Config) clampParallelism(requested int) int {
	if requested <= 0 || requested > c.MaxParallelism {
		return c.MaxParallelism
	}
	return requested
}

// jobTimeout is a job's deadline: the request's timeout_ms when set and
// shorter than DefaultTimeout, DefaultTimeout otherwise. The comparison runs
// in milliseconds, so no timeout_ms can overflow into an expired deadline.
func (c Config) jobTimeout(ms int64) time.Duration {
	if ms > 0 && ms < c.DefaultTimeout.Milliseconds() {
		return time.Duration(ms) * time.Millisecond
	}
	return c.DefaultTimeout
}

// Server is the daemon state. Create with New, serve with Handler, stop
// with Shutdown.
type Server struct {
	cfg     Config
	cache   *resultCache
	parts   *resultCache // encoded partition results by content hash
	metrics *serverMetrics
	// eval scores assignments for requests carrying an "evaluate" spec. It
	// is shared across jobs so its task-graph cache survives between
	// requests: meshes are keyed by stable content ids (generator name+scale
	// or upload digest), so re-scoring the same decomposition — notably a
	// repartition in "keep" mode — skips graph construction entirely.
	eval *eval.Evaluator
	// flight is the always-on ring of recently completed request span trees
	// (?debug=trace jobs, head-sampled jobs, sampled subtree RPCs), served at
	// /v1/traces/*.
	flight *obs.FlightRecorder
	// store is the optional durability tier (Config.Store); nil means the
	// daemon is purely in-memory, exactly as before.
	store *store.Store
	// cluster is the optional fleet view (Config.Cluster); nil means every
	// cluster hook is a no-op.
	cluster *cluster.Cluster
	// ready flips true once the store's journal replay has re-queued
	// interrupted jobs; /readyz gates on it.
	ready atomic.Bool

	queue    chan *job
	wg       sync.WaitGroup
	inflight atomic.Int64
	seq      atomic.Int64
	reqSeq   atomic.Int64

	mu       sync.Mutex
	flights  map[cacheKey]*job
	jobs     map[string]*job
	jobOrder []string
	draining bool
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheBytes),
		parts:   newResultCache(cfg.PartStoreBytes),
		eval:    eval.New(eval.Options{}),
		flight:  obs.NewFlightRecorder(cfg.TraceRingSize, cfg.TraceSampleRate),
		store:   cfg.Store,
		cluster: cfg.Cluster,
		queue:   make(chan *job, cfg.QueueDepth),
		flights: map[cacheKey]*job{},
		jobs:    map[string]*job{},
	}
	s.metrics = newServerMetrics(s)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	// Replay the job journal before declaring readiness: interrupted jobs are
	// back in the queue (or re-registered terminal) before /readyz says yes.
	s.recoverJobs()
	s.ready.Store(true)
	return s
}

// Handler returns the daemon's route table. Method mismatches yield 405
// via the Go 1.22 pattern router.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/partition", s.instrument("/v1/partition", s.handleJob(kindPartition)))
	mux.HandleFunc("POST /v1/repartition", s.instrument("/v1/repartition", s.handleJob(kindRepartition)))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs", s.handleJobGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs", s.handleJobCancel))
	mux.HandleFunc("GET /v1/meshes", s.instrument("/v1/meshes", s.handleMeshes))
	mux.HandleFunc("GET /v1/traces/recent", s.instrument("/v1/traces", s.handleTracesRecent))
	mux.HandleFunc("GET /v1/traces/{request_id}", s.instrument("/v1/traces", s.handleTraceGet))
	mux.HandleFunc("GET /buildinfo", s.instrument("/buildinfo", s.handleBuildinfo))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cluster != nil {
		mux.HandleFunc("POST /v1/internal/subtree", s.instrument("/v1/internal/subtree", s.handleJob(kindSubtree)))
		mux.HandleFunc("GET /v1/internal/cache/{key}", s.instrument("/v1/internal/cache", s.handleCacheProbe))
		mux.HandleFunc("GET /v1/cluster/status", s.instrument("/v1/cluster/status", s.handleClusterStatus))
	}
	return mux
}

// Shutdown drains the daemon: new work is refused (503), queued and running
// jobs finish, workers exit. It returns nil once everything drained, or
// ctx's error if the deadline passes first (remaining jobs are then
// cancelled so the process can exit promptly).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return s.flushStore()
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.flights {
			j.cancel()
		}
		s.mu.Unlock()
		<-done
		_ = s.flushStore()
		return ctx.Err()
	}
}

// flushStore forces the store's batcher to commit everything the drained
// workers wrote, so a SIGTERM never loses acknowledged state. It runs after
// wg.Wait — no worker can add commits behind the flush barrier.
func (s *Server) flushStore() error {
	if s.store == nil {
		return nil
	}
	return s.store.Flush(context.Background())
}

// instrument wraps a handler with request counting by endpoint, method and
// code, assigns each exchange a request id echoed as X-Request-Id (the
// client's own id is honoured when present), and emits one access-log line
// when the server has a logger.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			// A node-id prefix keeps server-generated ids unique across a
			// fleet, so stitched traces and cross-node provenance never
			// collide on "req-00000001" from two members.
			if s.cfg.NodeID != "" {
				id = fmt.Sprintf("%s-req-%08x", s.cfg.NodeID, s.reqSeq.Add(1))
			} else {
				id = fmt.Sprintf("req-%08x", s.reqSeq.Add(1))
			}
		}
		w.Header().Set("X-Request-Id", id)
		start := time.Now()
		code := h(w, r)
		elapsed := time.Since(start)
		s.metrics.requests.Inc(endpoint, r.Method, strconv.Itoa(code))
		s.metrics.httpTimes.Observe(elapsed.Seconds(), endpoint)
		if s.cfg.AccessLog != nil {
			s.cfg.AccessLog.Info("request",
				"id", id,
				"node", s.cfg.NodeID,
				"method", r.Method,
				"path", r.URL.Path,
				"endpoint", endpoint,
				"status", code,
				"cache", w.Header().Get("X-Tempartd-Cache"),
				"duration_ms", elapsed.Milliseconds(),
				"remote", r.RemoteAddr,
			)
		}
	}
}

// writeJSON emits a JSON response with the given status and returns the
// status for instrumentation.
func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
	return code
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) int {
	return writeJSON(w, code, errorBody{Error: msg})
}

// retryAfterSeconds estimates how long until queue space frees up: one
// average job per worker, floored at 1s. Kept deliberately simple — the
// point is to give load balancers a backoff signal, not a promise.
func (s *Server) retryAfterSeconds() int {
	return 1 + s.cfg.QueueDepth/(2*s.cfg.Workers)
}

// handleJob serves every job endpoint the same way: read the body (the raw
// bytes are what a cluster member forwards verbatim to the owner shard),
// decode it as a request of the given kind, and run it through serveJob.
// Repartitions and subtree tasks thereby share the partition endpoint's
// whole flow: caching, admission, singleflight, backpressure, cancellation.
func (s *Server) handleJob(kind string) func(http.ResponseWriter, *http.Request) int {
	return func(w http.ResponseWriter, r *http.Request) int {
		raw, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
		var req jobRequest
		switch {
		case err != nil:
			err = badRequest("reading request body: %v", err)
		case int64(len(raw)) > s.cfg.MaxBodyBytes:
			err = badRequest("request body exceeds %d bytes", s.cfg.MaxBodyBytes)
		default:
			req, err = decodeRequest(kind, r.Header.Get("Content-Type"), r.URL.Query(), raw)
		}
		if err != nil {
			return writeDecodeError(w, err)
		}
		if kind == kindSubtree {
			s.cluster.CountSubtreeServed()
		}
		return s.serveJob(w, r, req, raw)
	}
}

func writeDecodeError(w http.ResponseWriter, err error) int {
	var rerr *requestError
	if errors.As(err, &rerr) {
		return writeError(w, rerr.code, rerr.msg)
	}
	return writeError(w, http.StatusBadRequest, err.Error())
}

// serveJob runs a decoded request through cache, admission and (a)sync wait.
// ?debug=trace bypasses the cache and singleflight on both ends: the traced
// job is private (its payload carries a per-request debug block that would be
// wrong to share or cache) and runs with its own span recorder.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, req jobRequest, rawBody []byte) int {
	// The request id rides into the job (and from there across every peer
	// hop a cluster member makes on the job's behalf).
	base := req.base()
	base.requestID = w.Header().Get("X-Request-Id")
	// Adopt the incoming trace context, if any: a peer hop (forward, subtree
	// fan-out, cache probe) carries the head node's sampling decision, and
	// this node obeys it rather than re-rolling its own.
	if tc, ok := obs.ParseTraceContext(r.Header.Get(cluster.HeaderTrace)); ok {
		base.trace = tc
	}
	isSubtree := req.kind() == kindSubtree
	if isSubtree && base.trace.Sampled {
		// A sampled subtree RPC runs privately with a recorder so its reply
		// can ship the span snapshot back to the coordinator. The reply then
		// embeds per-run spans, so — exactly like ?debug=trace — it must
		// never enter the shared cache or the durable store.
		base.debugTrace = true
	}
	if r.URL.Query().Get("debug") == "trace" {
		base.debugTrace = true
	}
	key := req.key()
	if !base.debugTrace {
		// Content-addressed cache first: a hit costs one map lookup. A miss
		// reads through to the durable store, so a result computed before an
		// LRU eviction — or before a restart — is served without
		// recomputation.
		payload, tier := s.readThrough(s.cache, store.NSResult, key)
		if tier == "hit" {
			s.metrics.cacheHits.Inc()
		} else {
			s.metrics.cacheMisses.Inc()
		}
		if payload != nil {
			return writePayload(w, tier, payload)
		}
	}

	// Cluster routing after the local caches miss: forward to the owner
	// shard (or probe its cache when this request already made its one hop).
	if code, handled := s.clusterRoute(w, r, req, key, rawBody); handled {
		return code
	}

	// Trace-context head: a job about to run locally with no inherited
	// context either starts a sampled trace (flight-recorder head sampling —
	// deterministic stride, no RNG, so response bytes never depend on it) or,
	// for ?debug=trace, always gets one so a fan-out stitches spans back.
	// Subtree RPCs never self-sample: they obey their coordinator's bit.
	if !base.trace.Valid() && !isSubtree && (base.debugTrace || s.flight.SampleHead()) {
		base.trace = obs.TraceContext{ID: base.requestID, Sampled: true}
	}
	base.sampled = base.trace.Sampled

	j, err := s.acquireJob(req, key)
	switch {
	case errors.Is(err, errQueueFull):
		s.metrics.queueRejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		return writeError(w, http.StatusTooManyRequests, "admission queue full; retry later")
	case errors.Is(err, errDraining):
		return writeError(w, http.StatusServiceUnavailable, "server is draining")
	case err != nil:
		return writeError(w, http.StatusInternalServerError, err.Error())
	}

	if r.URL.Query().Get("async") == "1" {
		// Durable-before-202: the submitted record (and the mesh blob for
		// uploads) must be on stable storage before the daemon acknowledges
		// the job — an acknowledged async job is never lost to a crash.
		if err := s.journalSubmit(r.Context(), j); err != nil {
			s.releaseJob(j)
			return writeError(w, http.StatusInternalServerError,
				"journaling submission: "+err.Error())
		}
		// The async submitter's reference is held until completion or an
		// explicit DELETE; the job outlives this HTTP exchange.
		return writeJSON(w, http.StatusAccepted, map[string]string{
			"job_id": j.id,
			"status": j.getState().String(),
			"url":    "/v1/jobs/" + j.id,
		})
	}

	select {
	case <-j.done:
		s.releaseJob(j)
		return s.writeJobOutcome(w, j)
	case <-r.Context().Done():
		// Client went away: drop our reference. If we were the last party,
		// the job's context is cancelled and the partitioner unwinds at its
		// next boundary. Nothing useful can be written to a dead client.
		s.releaseJob(j)
		return statusClientClosedRequest
	}
}

// writeJobOutcome renders a completed job.
func (s *Server) writeJobOutcome(w http.ResponseWriter, j *job) int {
	if j.getState() == jobDone {
		w.Header().Set("X-Tempartd-Elapsed-Ms", strconv.FormatInt(j.elapsed.Milliseconds(), 10))
		return writePayload(w, "miss", j.payload)
	}
	code := j.status
	if code == 0 {
		code = http.StatusInternalServerError
	}
	return writeError(w, code, j.errMsg)
}

// writePayload answers 200 with a result payload and the cache tier that
// produced it (X-Tempartd-Cache: hit, store, miss or peer).
func writePayload(w http.ResponseWriter, tier string, payload []byte) int {
	w.Header().Set("X-Tempartd-Cache", tier)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
	return http.StatusOK
}

// jobView is the /v1/jobs/{id} representation.
type jobView struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Mesh      string          `json:"mesh,omitempty"`
	K         int             `json:"k"`
	Strategy  string          `json:"strategy"`
	CreatedMS int64           `json:"created_unix_ms"`
	ElapsedMS int64           `json:"elapsed_ms,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

func (s *Server) lookupJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) int {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		return writeError(w, http.StatusNotFound, "unknown job id")
	}
	base := j.req.base()
	v := jobView{
		ID:        j.id,
		State:     j.getState().String(),
		Mesh:      base.Name,
		K:         base.K,
		Strategy:  base.Strategy,
		CreatedMS: j.created.UnixMilli(),
	}
	select {
	case <-j.done:
		v.ElapsedMS = j.elapsed.Milliseconds()
		v.Error = j.errMsg
		if j.getState() == jobDone {
			v.Result = json.RawMessage(j.payload)
		}
	default:
	}
	return writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) int {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		return writeError(w, http.StatusNotFound, "unknown job id")
	}
	select {
	case <-j.done:
		return writeJSON(w, http.StatusConflict, map[string]string{
			"state": j.getState().String(), "error": "job already finished",
		})
	default:
	}
	// Cancel unconditionally: an explicit DELETE overrides other waiters.
	j.cancel()
	return writeJSON(w, http.StatusAccepted, map[string]string{"state": "cancelling"})
}

// meshView describes one named generator for /v1/meshes.
type meshView struct {
	Name           string `json:"name"`
	Description    string `json:"description"`
	CellsFullScale int    `json:"cells_full_scale"`
	TemporalLevels int    `json:"temporal_levels"`
}

func (s *Server) handleMeshes(w http.ResponseWriter, r *http.Request) int {
	sum := func(counts []int64) int {
		var t int64
		for _, c := range counts {
			t += c
		}
		return int(t)
	}
	return writeJSON(w, http.StatusOK, map[string]any{"meshes": []meshView{
		{Name: "CYLINDER", Description: "graded cylinder with a single hot core (paper Table I)",
			CellsFullScale: sum(mesh.CylinderCounts), TemporalLevels: len(mesh.CylinderCounts)},
		{Name: "CUBE", Description: "cube with three disjoint hotspots (paper Table I)",
			CellsFullScale: sum(mesh.CubeCounts), TemporalLevels: len(mesh.CubeCounts)},
		{Name: "PPRIME_NOZZLE", Description: "nozzle/jet plume cone (paper Table I)",
			CellsFullScale: sum(mesh.NozzleCounts), TemporalLevels: len(mesh.NozzleCounts)},
	}})
}

// handleBuildinfo reports what binary is answering: module version, VCS
// revision and time, Go version, platform. Operators correlate this with
// deploys before reading any other metric.
func (s *Server) handleBuildinfo(w http.ResponseWriter, r *http.Request) int {
	return writeJSON(w, http.StatusOK, obs.ReadBuildInfo())
}

func (s *Server) isDraining() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.draining }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 only once the store (when
// configured) has opened and its journal replay re-queued interrupted jobs,
// and 503 again while draining. Load balancers use it to gate traffic;
// /healthz stays the liveness signal.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.isDraining():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting", "reason": "journal replay in progress"})
	default:
		durable := "none"
		if s.store != nil {
			durable = "open"
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready", "store": durable})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.metrics.reg.Write(w)
}

// String identifies the server in logs.
func (s *Server) String() string {
	return fmt.Sprintf("tempartd(workers=%d queue=%d cache=%dMiB)",
		s.cfg.Workers, s.cfg.QueueDepth, s.cfg.CacheBytes>>20)
}
