package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"tempart/internal/core"
	"tempart/internal/mesh"
	pmetrics "tempart/internal/metrics"
	"tempart/internal/obs"
	"tempart/internal/partition"
	"tempart/internal/store"
)

// jobState is the lifecycle of a partition job.
type jobState int32

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobFailed
	jobCancelled
)

func (s jobState) String() string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	case jobFailed:
		return "failed"
	case jobCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("jobState(%d)", int32(s))
}

// Job kinds: the three requests the worker pool executes. A kind names its
// endpoint's codec, its journal records and its flight-recorder entries.
const (
	kindPartition   = "partition"
	kindRepartition = "repartition"
	// kindSubtree is a cluster subtree RPC. A coordinator retries those
	// itself, so they arrive synchronously and are never journaled.
	kindSubtree = "subtree"
)

// jobRequest is the unit of work the worker pool executes: a plain
// partition, a warm-started repartition or a cluster subtree task. The job
// machinery (codec, admission, singleflight, cancellation, caching,
// journal) is shared; these methods are the kind-specific parts.
type jobRequest interface {
	kind() string
	// fromQuery reads the query parameters of an octet-stream upload.
	fromQuery(q *query)
	// validate applies limits and canonicalizes the decoded request.
	validate() error
	// key is the content address for the result cache and singleflight map.
	key() cacheKey
	// base exposes the common request fields (mesh identity, k, strategy,
	// options, timeout) for job views and the exec gate.
	base() *PartitionRequest
	// describe records the request's inputs in a run manifest.
	describe(inputs map[string]any)
	// execute runs the work under ctx and returns the cacheable response
	// payload and how long the computational core took.
	execute(ctx context.Context, s *Server) (payload []byte, elapsed time.Duration, err *requestError)
}

// job is one partition execution. Identical concurrent requests share a
// single job (singleflight on the content-address key): each interested
// party holds one reference; when the count drops to zero the job's context
// is cancelled, so work stops as soon as nobody is listening.
type job struct {
	id  string
	key cacheKey
	req jobRequest

	ctx    context.Context
	cancel context.CancelFunc

	state atomic.Int32

	// done is closed by the worker after payload/status/errMsg are final.
	done chan struct{}

	// Guarded by Server.mu.
	refs    int
	created time.Time

	// Written by the worker before close(done); read only after <-done.
	payload []byte
	status  int
	errMsg  string
	elapsed time.Duration

	// rec is the per-request span recorder of a ?debug=trace job; nil
	// otherwise (the pipeline's instrumentation then costs nothing). Traced
	// jobs are private — never singleflighted — and noCache keeps their
	// payload (which embeds the debug block) out of the shared result cache.
	rec     *obs.Recorder
	noCache bool

	// journaled marks a job whose lifecycle is recorded in the store's job
	// journal (async submissions on a durable daemon, and every job replayed
	// from the journal after a restart).
	journaled atomic.Bool
}

func (j *job) setState(s jobState) { j.state.Store(int32(s)) }
func (j *job) getState() jobState  { return jobState(j.state.Load()) }

// acquireJob returns the in-flight job for the request's key, creating and
// enqueueing one if needed, and takes one reference on it. It returns
// errQueueFull when a new job cannot be admitted.
var errQueueFull = errors.New("admission queue full")
var errDraining = errors.New("server is draining")

func (s *Server) acquireJob(req jobRequest, key cacheKey) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	private := req.base().debugTrace
	if !private {
		if j, ok := s.flights[key]; ok {
			j.refs++
			return j, nil
		}
	}
	j := s.newJob(fmt.Sprintf("%x-%d", key[:6], s.seq.Add(1)), key, req, time.Now())
	if private {
		j.rec = obs.NewRecorder()
		j.noCache = true
	} else if req.base().sampled {
		// Head-sampled job: record spans for the flight recorder, but keep
		// the payload canonical and cacheable — the debug block is gated on
		// debugTrace, not on the recorder, so sampled bytes match unsampled.
		j.rec = obs.NewRecorder()
	}
	select {
	case s.queue <- j:
	default:
		j.cancel()
		return nil, errQueueFull
	}
	if !private {
		s.flights[key] = j
	}
	s.rememberJob(j)
	return j, nil
}

// newJob builds a job holding one reference, under its request's deadline.
func (s *Server) newJob(id string, key cacheKey, req jobRequest, created time.Time) *job {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.jobTimeout(req.base().TimeoutMS))
	return &job{id: id, key: key, req: req, ctx: ctx, cancel: cancel,
		done: make(chan struct{}), refs: 1, created: created}
}

// releaseJob drops one reference. When the last reference goes away before
// completion, the job's context is cancelled — a queued job will be skipped
// by the worker, a running one stops at the partitioner's next boundary.
func (s *Server) releaseJob(j *job) {
	s.mu.Lock()
	j.refs--
	last := j.refs <= 0
	s.mu.Unlock()
	if last {
		j.cancel()
	}
}

// rememberJob registers the job for /v1/jobs lookups, evicting the oldest
// completed entries beyond the retention cap. Callers hold s.mu.
func (s *Server) rememberJob(j *job) {
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	for len(s.jobOrder) > s.cfg.JobRetention {
		victim := s.jobs[s.jobOrder[0]]
		if victim != nil {
			switch victim.getState() {
			case jobQueued, jobRunning:
				return // oldest is still live; retention grows temporarily
			}
			delete(s.jobs, victim.id)
		}
		s.jobOrder = s.jobOrder[1:]
	}
}

// worker drains the admission queue until it closes (shutdown).
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job and publishes its outcome. All error paths funnel
// through fail() so waiters always observe a terminal state.
func (s *Server) runJob(j *job) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer j.cancel() // release the deadline timer

	finish := func() {
		s.mu.Lock()
		// A private (debug-trace) job never registered in flights; deleting
		// unconditionally could evict a concurrent public job with the same
		// content address.
		if s.flights[j.key] == j {
			delete(s.flights, j.key)
		}
		s.mu.Unlock()
		close(j.done)
	}

	fail := func(code int, msg string) {
		state, record := jobFailed, store.JobFailed
		if err := j.ctx.Err(); err != nil {
			state, record, code, msg = jobCancelled, store.JobCancelled, statusClientClosedRequest, "cancelled"
			if errors.Is(err, context.DeadlineExceeded) {
				code, msg = http.StatusGatewayTimeout, "deadline exceeded"
			}
			s.metrics.jobsCancelled.Inc()
		}
		j.setState(state)
		j.status, j.errMsg = code, msg
		s.journalState(j, record, msg)
		finish()
	}

	if j.ctx.Err() != nil {
		fail(0, "")
		return
	}
	j.setState(jobRunning)
	s.metrics.admissionWait.Observe(time.Since(j.created).Seconds())
	s.journalState(j, store.JobRunning, "")

	if s.cfg.execGate != nil {
		if err := s.cfg.execGate(j.ctx, j.req.base()); err != nil {
			fail(http.StatusInternalServerError, err.Error())
			return
		}
	}

	ctx := j.ctx
	if j.rec != nil {
		ctx = obs.WithRecorder(ctx, j.rec)
	}
	payload, elapsed, rerr := j.req.execute(ctx, s)
	// Whatever the traced pipeline recorded feeds the aggregate series on
	// /metrics and the flight-recorder ring, success or not.
	s.metrics.drain(j.rec)
	s.recordFlight(j)
	if rerr != nil {
		fail(rerr.code, rerr.msg)
		return
	}
	j.payload = payload
	j.elapsed = elapsed
	// Durability before acknowledgement: the payload (and its provenance
	// entry) must be committed before any waiter — or the shared cache — can
	// observe the job as done.
	if rerr := s.persistOutcome(j, payload); rerr != nil {
		fail(rerr.code, rerr.msg)
		return
	}
	if !j.noCache {
		s.cache.put(j.key, payload)
	}
	j.status = http.StatusOK
	j.setState(jobDone)
	finish()
}

// recordFlight files a completed traced job's span tree into the flight
// recorder ring, where /v1/traces/* serves it. Untraced jobs (no recorder)
// cost one nil check.
func (s *Server) recordFlight(j *job) {
	if j.rec == nil || s.flight == nil {
		return
	}
	base := j.req.base()
	s.flight.Record(obs.FlightEntry{
		RequestID: base.requestID,
		TraceID:   base.trace.ID,
		Kind:      j.req.kind(),
		Start:     j.created,
		Duration:  time.Since(j.created),
		Spans:     j.rec.Snapshot(),
		Counters:  j.rec.Counters(),
	})
}

// base implements jobRequest.
func (r *PartitionRequest) base() *PartitionRequest { return r }

// describe implements jobRequest.
func (r *PartitionRequest) describe(in map[string]any) {
	if r.uploaded != nil {
		in["mesh_digest"] = r.digestHex()
	} else {
		in["mesh"] = r.Name
		in["scale"] = r.Scale
	}
	in["k"] = r.K
	in["strategy"] = r.Strategy
	in["method"] = r.Options.Method
	in["seed"] = r.Options.Seed
}

// resolveMesh materialises the request's mesh (upload or generator) and
// checks k against the cell count.
func (r *PartitionRequest) resolveMesh() (*mesh.Mesh, *requestError) {
	m := r.uploaded
	if m == nil {
		var err error
		if m, err = mesh.ByName(r.Name, r.Scale); err != nil {
			return nil, badRequest("%v", err)
		}
	}
	if r.K > m.NumCells() {
		return nil, badRequest("k = %d exceeds the mesh's %d cells", r.K, m.NumCells())
	}
	return m, nil
}

// execute implements jobRequest: the full partition pipeline.
func (r *PartitionRequest) execute(ctx context.Context, s *Server) ([]byte, time.Duration, *requestError) {
	m, rerr := r.resolveMesh()
	if rerr != nil {
		return nil, 0, rerr
	}
	opt := s.partitionOptions(r.Options)
	start := time.Now()
	var result *partition.Result
	var quality pmetrics.PartitionQuality
	// Coordinator mode first: on a cluster member, a large eligible request
	// is split across the fleet. The stitched result is byte-identical to
	// the local computation, so a nil return (ineligible, no healthy peers,
	// fan-out failed) simply falls through to the ordinary path.
	if res := s.fanoutDecompose(ctx, r, m, opt); res != nil {
		result = res
		quality = pmetrics.EvaluatePartition(m, res, r.Strategy)
	} else {
		d, err := core.Decompose(ctx, m, r.K, r.strat, opt)
		if err != nil {
			return nil, 0, errorf(http.StatusInternalServerError, "%v", err)
		}
		result = d.Result
		quality = d.Quality
	}
	elapsed := time.Since(start)
	s.metrics.partRuns.Inc(r.Strategy)
	s.metrics.partTimes.Observe(elapsed.Seconds(), r.Strategy)
	return r.respond(ctx, s, m, result, elapsed, func(t resultTail) any {
		return &PartitionResponse{
			Mesh:         t.mesh,
			K:            r.K,
			Strategy:     r.Strategy,
			Method:       r.Options.Method,
			Seed:         r.Options.Seed,
			EdgeCut:      result.EdgeCut,
			MaxImbalance: result.MaxImbalance(),
			Quality:      quality,
			PartHash:     t.partHash,
			Part:         result.Part,
			Eval:         t.eval,
			Debug:        t.debug,
		}
	})
}

// resultTail is what partition and repartition responses share around the
// assignment itself.
type resultTail struct {
	mesh     MeshInfo
	partHash string
	eval     *EvalResult
	debug    *DebugInfo
}

// respond is the shared tail of the partition and repartition jobs: store
// the assignment in the partition store under its content hash (so a later
// repartition can warm-start from it by hash alone), score it when the
// request carries an evaluate spec, and marshal the response body built
// around them.
func (r *PartitionRequest) respond(ctx context.Context, s *Server, m *mesh.Mesh, res *partition.Result,
	elapsed time.Duration, body func(resultTail) any) ([]byte, time.Duration, *requestError) {
	t := resultTail{mesh: MeshInfo{Name: m.Name, Cells: m.NumCells(), MaxLevel: int(m.MaxLevel)}}
	var rerr *requestError
	if t.partHash, rerr = s.storePartition(ctx, res); rerr != nil {
		return nil, 0, rerr
	}
	if r.Evaluate != nil {
		if t.eval, rerr = s.runEval(ctx, r.Evaluate, m, r.id(), res.Part, r.K); rerr != nil {
			return nil, 0, rerr
		}
	}
	// The debug block is gated on the explicit ?debug=trace flag, NOT on the
	// recorder: head-sampled jobs run with a recorder too, and their payload
	// must stay byte-identical to (and cacheable as) the untraced result.
	if r.debugTrace {
		t.debug = debugInfo(obs.FromContext(ctx))
	}
	return marshalPayload(body(t), elapsed)
}

// marshalPayload encodes a job's response body.
func marshalPayload(body any, elapsed time.Duration) ([]byte, time.Duration, *requestError) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, 0, errorf(http.StatusInternalServerError, "%v", err)
	}
	return payload, elapsed, nil
}

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request"; we reuse it for jobs abandoned by every requester.
const statusClientClosedRequest = 499

// MeshInfo describes the partitioned mesh in responses.
type MeshInfo struct {
	Name     string `json:"name"`
	Cells    int    `json:"cells"`
	MaxLevel int    `json:"max_level"`
}

// PartitionResponse is the cacheable body of a successful partition request.
// Quality carries the paper's cut/imbalance/fragments axes so clients need
// no second call.
type PartitionResponse struct {
	Mesh         MeshInfo                  `json:"mesh"`
	K            int                       `json:"k"`
	Strategy     string                    `json:"strategy"`
	Method       string                    `json:"method"`
	Seed         int64                     `json:"seed"`
	EdgeCut      int64                     `json:"edge_cut"`
	MaxImbalance float64                   `json:"max_imbalance"`
	Quality      pmetrics.PartitionQuality `json:"quality"`
	// PartHash content-addresses the encoded partition in the daemon's
	// partition store; POST /v1/repartition can warm-start from it.
	PartHash string  `json:"part_hash,omitempty"`
	Part     []int32 `json:"part"`
	// Eval scores the assignment on a simulated cluster when the request
	// carried an "evaluate" spec.
	Eval *EvalResult `json:"eval,omitempty"`
	// Debug summarizes the recorded pipeline spans of a ?debug=trace request.
	Debug *DebugInfo `json:"debug,omitempty"`
}

// DebugInfo is the ?debug=trace response block: the per-phase time rollup,
// pipeline counters, and how many spans the recorder captured.
type DebugInfo struct {
	Phases   []obs.PhaseSummary `json:"phases"`
	Counters map[string]int64   `json:"counters,omitempty"`
	Spans    int                `json:"spans"`
}

// debugInfo rolls a job recorder up into the response block; nil in, nil out
// (untraced requests get no debug field at all).
func debugInfo(rec *obs.Recorder) *DebugInfo {
	if rec == nil {
		return nil
	}
	return &DebugInfo{
		Phases:   rec.PhaseSummaries(),
		Counters: rec.Counters(),
		Spans:    len(rec.Snapshot()),
	}
}
