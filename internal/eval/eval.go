// Package eval is the one way a decomposition is scored: it turns (mesh,
// partition, cluster, strategy) tuples into makespans and the associated
// quality metrics, caching built task graphs and pooling simulators so
// sweeps over strategy/cluster variants pay the graph-construction cost
// once.
//
// Every figure, core.Decomposition.Simulate, cmd/flusim, the examples, the
// drift study, tempartd's evaluate blocks and the benchmark's lanes reach
// taskgraph.Build + flusim.Simulate through Evaluate. Only the solver and
// the runtime, which execute their graphs, and Fig 8, which counts a toy
// graph's tasks, build graphs of their own. A cached
// graph is found again by comparing everything it was built from (mesh
// identity, temporal levels, partition, domain count, iterations, costs)
// against the entry's own copies, so a repartition request that keeps its
// parent's partition, or a strategy sweep over one decomposition, reuses
// the graph instead of rebuilding it. Concurrent Evaluate calls share
// cached graphs.
package eval

import (
	"slices"
	"sync"
	"time"

	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/obs"
	"tempart/internal/taskgraph"
	"tempart/internal/temporal"
	"tempart/internal/trace"
)

// Options configures an Evaluator.
type Options struct {
	// Parallelism is ignored: each Evaluate call runs on its caller's
	// goroutine. It is kept for callers that still set it.
	Parallelism int
	// GraphCacheSize is the maximum number of task graphs kept (LRU).
	// 0 means DefaultGraphCacheSize; negative disables caching.
	GraphCacheSize int
}

// DefaultGraphCacheSize is the graph-cache capacity when Options leaves it 0.
const DefaultGraphCacheSize = 8

// Spec is one evaluation request.
type Spec struct {
	// Mesh and Part define the decomposition the task graph is built from.
	Mesh *mesh.Mesh
	// MeshID is an optional stable identity for the mesh contents. When
	// set, cached graphs survive re-resolving the same mesh into a different
	// allocation (e.g. one tempartd request to the next), so distinct meshes
	// MUST NOT share one; when empty a cached graph matches only the same
	// mesh allocation. Callers that mutate a mesh's Level slice in place
	// (ReassignLevels) are safe either way: levels are compared by content.
	MeshID     string
	Part       []int32
	NumDomains int
	// Iterations chains several solver iterations into the DAG (0 → 1).
	Iterations int
	// FaceCost/CellCost are per-object work units (0 → 1), as in
	// taskgraph.Options.
	FaceCost, CellCost int32
	// ProcOf maps each domain to its process.
	ProcOf []int32
	// Sim is the cluster/strategy configuration for the simulation.
	Sim flusim.Config
	// Obs, when non-nil, records build/simulate spans and graph-cache
	// hit/miss counters ("eval.graph_cache_hit"/"eval.graph_cache_miss").
	// Not compared by the graph cache, so traced and untraced requests for
	// the same workload share cached graphs. Nil costs nothing.
	Obs *obs.Recorder
}

// Outcome is the result of one evaluation.
type Outcome struct {
	Makespan     int64
	CriticalPath int64
	TotalWork    int64
	// CommVolume counts the task-graph dependency edges that connect tasks
	// whose domains live on different processes — the paper's estimate of
	// inter-process communication (§VI, Figure 11b): "a communication is
	// considered to be an edge of the task graph connecting two nodes whose
	// domains are distributed across two different processes." The
	// simulation counts them as it releases successors.
	CommVolume int64
	// Efficiency is TotalWork / (Makespan × procs × workers); zero when the
	// cluster is unbounded.
	Efficiency float64
	NumTasks   int
	NumDeps    int
	// BuildSeconds is the graph-construction time; zero when GraphCached.
	BuildSeconds    float64
	SimulateSeconds float64
	// GraphCached reports whether the task graph came from the cache.
	GraphCached bool
	// Trace is set when Spec.Sim.RecordTrace was set.
	Trace *trace.Trace
	// Graph is the task graph that was simulated. It may be shared with the
	// cache and with concurrent evaluations: read it, never modify it.
	Graph *taskgraph.TaskGraph
}

// Evaluator caches task graphs and pools simulators. Safe for concurrent
// use.
type Evaluator struct {
	cacheSize int

	mu sync.Mutex
	// cache holds at most cacheSize entries, most recently used first.
	cache []*cacheEntry

	sims sync.Pool
}

// cacheEntry is one cached graph with everything it was built from. The
// level and part vectors are the entry's own copies, so mutating a spec's
// slices in place after caching cannot make a stale graph match; entries
// with equal levels share one level copy. Entries are immutable once cached.
type cacheEntry struct {
	meshID string
	// mesh is the identity of a spec without a MeshID (nil otherwise); the
	// entry keeps that mesh alive.
	mesh               *mesh.Mesh
	numInteriorFaces   int
	numDomains, iters  int
	faceCost, cellCost int32
	level              []temporal.Level
	part               []int32
	tg                 *taskgraph.TaskGraph
}

// New builds an Evaluator.
func New(opt Options) *Evaluator {
	size := opt.GraphCacheSize
	if size == 0 {
		size = DefaultGraphCacheSize
	}
	if size < 0 {
		size = 0
	}
	return &Evaluator{
		cacheSize: size,
		sims:      sync.Pool{New: func() any { return flusim.NewSimulator() }},
	}
}

// matches reports whether ent was built from exactly what spec describes:
// the scalar fields first, then the part and level content.
func (ent *cacheEntry) matches(spec *Spec) bool {
	if ent.meshID != spec.MeshID || ent.numInteriorFaces != spec.Mesh.NumInteriorFaces ||
		ent.numDomains != spec.NumDomains || ent.iters != spec.iterations() ||
		ent.faceCost != spec.FaceCost || ent.cellCost != spec.CellCost {
		return false
	}
	// Without a stable content id, only the same mesh allocation matches:
	// the sweep pattern, which reuses one mesh across calls.
	if spec.MeshID == "" && ent.mesh != spec.Mesh {
		return false
	}
	return equal(ent.part, spec.Part) && equal(ent.level, spec.Mesh.Level)
}

// equal reports whether a and b hold the same elements, like slices.Equal,
// but compares whole blocks: an array comparison compiles to one memory
// compare, several times faster than slices.Equal's element loop on the
// 10⁴–10⁶-element vectors every cached lookup reads.
func equal[T int32 | temporal.Level](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	const block = 256
	for len(a) >= block {
		if *(*[block]T)(a) != *(*[block]T)(b) {
			return false
		}
		a, b = a[block:], b[block:]
	}
	return slices.Equal(a, b)
}

// lookup returns the cached entry matching spec and marks it most recently
// used, or nil. The caller holds e.mu.
func (e *Evaluator) lookup(spec *Spec) *cacheEntry {
	for i, ent := range e.cache {
		if ent.matches(spec) {
			copy(e.cache[1:i+1], e.cache[:i])
			e.cache[0] = ent
			return ent
		}
	}
	return nil
}

// insert caches tg as built from spec, most recently used, evicting the
// least recently used entry beyond the capacity. The caller holds e.mu and
// has checked that no entry matches spec.
func (e *Evaluator) insert(spec *Spec, tg *taskgraph.TaskGraph) {
	ent := &cacheEntry{
		meshID: spec.MeshID, numInteriorFaces: spec.Mesh.NumInteriorFaces,
		numDomains: spec.NumDomains, iters: spec.iterations(),
		faceCost: spec.FaceCost, cellCost: spec.CellCost,
		part: slices.Clone(spec.Part), tg: tg,
	}
	if spec.MeshID == "" {
		ent.mesh = spec.Mesh
	}
	for _, other := range e.cache {
		if equal(other.level, spec.Mesh.Level) {
			ent.level = other.level
			break
		}
	}
	if ent.level == nil {
		ent.level = slices.Clone(spec.Mesh.Level)
	}
	if len(e.cache) == e.cacheSize {
		e.cache = e.cache[:len(e.cache)-1]
	}
	e.cache = slices.Insert(e.cache, 0, ent)
}

func (spec *Spec) iterations() int {
	if spec.Iterations < 1 {
		return 1
	}
	return spec.Iterations
}

func (spec *Spec) tgOptions() taskgraph.Options {
	return taskgraph.Options{
		FaceCost: spec.FaceCost,
		CellCost: spec.CellCost,
		Obs:      spec.Obs,
	}
}

// graphFor returns the task graph for the spec, building (and caching) it
// when absent.
func (e *Evaluator) graphFor(spec *Spec) (tg *taskgraph.TaskGraph, cached bool, buildSeconds float64, err error) {
	if e.cacheSize > 0 {
		e.mu.Lock()
		ent := e.lookup(spec)
		e.mu.Unlock()
		if ent != nil {
			spec.Obs.Count("eval.graph_cache_hit", 1)
			return ent.tg, true, 0, nil
		}
	}
	spec.Obs.Count("eval.graph_cache_miss", 1)
	t0 := time.Now()
	tg, err = taskgraph.BuildIterations(spec.Mesh, spec.Part, spec.NumDomains,
		spec.iterations(), spec.tgOptions())
	if err != nil {
		return nil, false, 0, err
	}
	buildSeconds = time.Since(t0).Seconds()
	// Freeze the lazily derived state now so concurrent simulations share
	// the graph without contending on first use.
	tg.CriticalPath()
	if e.cacheSize > 0 {
		e.mu.Lock()
		if ent := e.lookup(spec); ent != nil {
			// Another goroutine built it concurrently; keep theirs.
			tg, cached = ent.tg, true
		} else {
			e.insert(spec, tg)
		}
		e.mu.Unlock()
	}
	return tg, cached, buildSeconds, nil
}

// Evaluate scores one spec.
func (e *Evaluator) Evaluate(spec Spec) (*Outcome, error) {
	tg, cached, buildSeconds, err := e.graphFor(&spec)
	if err != nil {
		return nil, err
	}
	out, err := e.simulate(tg, &spec)
	if err != nil {
		return nil, err
	}
	out.GraphCached = cached
	out.BuildSeconds = buildSeconds
	return out, nil
}

func (e *Evaluator) simulate(tg *taskgraph.TaskGraph, spec *Spec) (*Outcome, error) {
	sim := e.sims.Get().(*flusim.Simulator)
	defer e.sims.Put(sim)
	span := spec.Obs.Start("eval/simulate")
	t0 := time.Now()
	res, err := sim.Simulate(tg, spec.ProcOf, spec.Sim)
	if err != nil {
		span.End()
		return nil, err
	}
	simSeconds := time.Since(t0).Seconds()
	if span.Active() {
		span.SetInt("tasks", int64(tg.NumTasks()))
		span.SetInt("makespan", res.Makespan)
		span.SetStr("scheduler", spec.Sim.Strategy.String())
	}
	span.End()
	out := &Outcome{
		Makespan:        res.Makespan,
		CriticalPath:    res.CriticalPath,
		TotalWork:       res.TotalWork,
		CommVolume:      res.CommVolume,
		NumTasks:        tg.NumTasks(),
		NumDeps:         tg.NumDeps(),
		SimulateSeconds: simSeconds,
		Trace:           res.Trace,
		Graph:           tg,
	}
	if w := spec.Sim.Cluster.WorkersPerProc; w > 0 && res.Makespan > 0 {
		cores := int64(spec.Sim.Cluster.NumProcs) * int64(w)
		out.Efficiency = float64(res.TotalWork) / (float64(res.Makespan) * float64(cores))
	}
	return out, nil
}
