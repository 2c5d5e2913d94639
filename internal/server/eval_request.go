package server

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"net/http"

	"tempart/internal/eval"
	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/obs"
)

// Evaluation limits. The simulated cluster and the DAG depth bound how much
// a single request can make the evaluation pipeline allocate.
const (
	maxEvalProcs      = 1 << 12
	maxEvalWorkers    = 1 << 10
	maxEvalIterations = 8
	maxEvalLatency    = 1 << 30
)

// EvalSpec asks the daemon to score the computed assignment through the
// evaluation pipeline (task graph + FLUSIM) in the same response: the
// partition's task DAG is built (or fetched from the server's graph cache)
// and scheduled on the simulated cluster. On JSON requests it arrives as the
// "evaluate" object; on octet-stream uploads as eval_* query parameters.
type EvalSpec struct {
	// Procs is the number of simulated processes. Required (≥ 1).
	Procs int `json:"procs"`
	// Workers is cores per process; 0 simulates unbounded cores (the
	// paper's idealised FLUSIM configuration).
	Workers int `json:"workers,omitempty"`
	// Scheduler picks the ready-queue policy ("eager", "lifo", "cpf",
	// "random"); empty means eager.
	Scheduler string `json:"scheduler,omitempty"`
	// CommLatency charges every cross-process dependency edge this many
	// time units; 0 reproduces the paper's communication-free FLUSIM.
	CommLatency int64 `json:"comm_latency,omitempty"`
	// Seed drives the "random" scheduler.
	Seed int64 `json:"seed,omitempty"`
	// Iterations chains several solver iterations into the DAG (0 → 1).
	Iterations int `json:"iterations,omitempty"`

	sched flusim.Strategy
}

// EvalResult is the evaluation block of partition and repartition responses.
type EvalResult struct {
	Scheduler    string `json:"scheduler"`
	Procs        int    `json:"procs"`
	Workers      int    `json:"workers"`
	Iterations   int    `json:"iterations"`
	Makespan     int64  `json:"makespan"`
	CriticalPath int64  `json:"critical_path"`
	TotalWork    int64  `json:"total_work"`
	CommVolume   int64  `json:"comm_volume"`
	// Efficiency is work / (makespan · cores); omitted when unbounded.
	Efficiency float64 `json:"efficiency,omitempty"`
	NumTasks   int     `json:"num_tasks"`
	NumDeps    int     `json:"num_deps"`
	BuildMS    float64 `json:"build_ms"`
	SimulateMS float64 `json:"simulate_ms"`
	// GraphCached reports whether the task graph came from the daemon's
	// graph cache instead of being rebuilt (e.g. a repartition in "keep"
	// mode re-scoring its parent's assignment).
	GraphCached bool `json:"graph_cached"`
}

// validate applies limits and resolves the scheduler enum, canonicalizing
// the label so equivalent spellings share a cache key.
func (e *EvalSpec) validate() error {
	if e.Procs < 1 || e.Procs > maxEvalProcs {
		return badRequest("evaluate.procs = %d out of range [1, %d]", e.Procs, maxEvalProcs)
	}
	if e.Workers < 0 || e.Workers > maxEvalWorkers {
		return badRequest("evaluate.workers = %d out of range [0, %d]", e.Workers, maxEvalWorkers)
	}
	sched, err := flusim.ParseStrategy(cmp.Or(e.Scheduler, "eager"))
	if err != nil {
		return badRequest("evaluate.scheduler: %v", err)
	}
	e.sched = sched
	e.Scheduler = sched.String()
	if e.CommLatency < 0 || e.CommLatency > maxEvalLatency {
		return badRequest("evaluate.comm_latency = %d out of range [0, %d]", e.CommLatency, maxEvalLatency)
	}
	if e.Iterations < 0 || e.Iterations > maxEvalIterations {
		return badRequest("evaluate.iterations = %d out of range [0, %d]", e.Iterations, maxEvalIterations)
	}
	if e.Iterations == 0 {
		e.Iterations = 1
	}
	return nil
}

// hashInto folds the canonical spec into a request content address. Only
// called on validated (canonical) specs.
func (e *EvalSpec) hashInto(h io.Writer) {
	fmt.Fprintf(h, "eval\x00procs=%d workers=%d sched=%s lat=%d seed=%d iters=%d\x00",
		e.Procs, e.Workers, e.Scheduler, e.CommLatency, e.Seed, e.Iterations)
}

// evalSpec reads an evaluate spec from the eval_* query parameters of an
// upload, or nil when none is present (evaluation is opt-in).
func (q *query) evalSpec() *EvalSpec {
	e := &EvalSpec{}
	found := q.found
	q.read("eval_procs", &e.Procs)
	q.read("eval_workers", &e.Workers)
	q.read("eval_scheduler", &e.Scheduler)
	q.read("eval_comm_latency", &e.CommLatency)
	q.read("eval_seed", &e.Seed)
	q.read("eval_iterations", &e.Iterations)
	if q.found == found {
		return nil
	}
	return e
}

// runEval scores an assignment on the simulated cluster through the server's
// shared evaluator. Domains map to processes in contiguous blocks, the
// mapping FLUSEPA uses after partitioning.
func (s *Server) runEval(ctx context.Context, spec *EvalSpec, m *mesh.Mesh, meshID string, part []int32, k int) (*EvalResult, *requestError) {
	out, err := s.eval.Evaluate(eval.Spec{
		Mesh:       m,
		MeshID:     meshID,
		Part:       part,
		NumDomains: k,
		Iterations: spec.Iterations,
		ProcOf:     flusim.BlockMap(k, spec.Procs),
		Obs:        obs.FromContext(ctx),
		Sim: flusim.Config{
			Cluster:     flusim.Cluster{NumProcs: spec.Procs, WorkersPerProc: spec.Workers},
			Strategy:    spec.sched,
			Seed:        spec.Seed,
			CommLatency: spec.CommLatency,
		},
	})
	if err != nil {
		return nil, errorf(http.StatusInternalServerError, "evaluating partition: %v", err)
	}
	s.metrics.evalRuns.Inc()
	if out.GraphCached {
		s.metrics.evalGraphHits.Inc()
	}
	return &EvalResult{
		Scheduler:    spec.Scheduler,
		Procs:        spec.Procs,
		Workers:      spec.Workers,
		Iterations:   spec.Iterations,
		Makespan:     out.Makespan,
		CriticalPath: out.CriticalPath,
		TotalWork:    out.TotalWork,
		CommVolume:   out.CommVolume,
		Efficiency:   out.Efficiency,
		NumTasks:     out.NumTasks,
		NumDeps:      out.NumDeps,
		BuildMS:      out.BuildSeconds * 1000,
		SimulateMS:   out.SimulateSeconds * 1000,
		GraphCached:  out.GraphCached,
	}, nil
}
