// Package eval is the evaluation facade: it turns (mesh, partition,
// cluster, strategy) tuples into makespans and the associated quality
// metrics, caching built task graphs and pooling simulators so sweeps over
// strategy/cluster variants pay the graph-construction cost once.
//
// Every quality decision in the repo — partbench strategy tables, tuner
// trials, repartitioning studies, tempartd responses — funnels through
// taskgraph.Build + flusim.Simulate; this package is their shared front
// door. Graphs are cached under a content hash of (mesh identity, temporal
// levels, partition, domain count, iterations, costs), so a repartition
// request that keeps its parent's partition, or a strategy sweep over one
// decomposition, reuses the graph instead of rebuilding it. Simulations of
// independent specs fan out across a bounded graph.Pool.
package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"tempart/internal/flusim"
	"tempart/internal/graph"
	"tempart/internal/mesh"
	"tempart/internal/metrics"
	"tempart/internal/obs"
	"tempart/internal/taskgraph"
	"tempart/internal/trace"
)

// Options configures an Evaluator.
type Options struct {
	// Parallelism bounds the workers of the EvaluateAll simulation fan-out:
	// 0 (or negative) means one per core, 1 serial. Graphs are built
	// serially.
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
	// set, cache keys survive re-resolving the same mesh into a different
	// allocation (e.g. one tempartd request to the next); when empty the
	// graph cache is keyed per call only through the level/part content,
	// so distinct meshes MUST set it or differ in those. Callers that
	// mutate a mesh's Level slice in place (ReassignLevels) are safe either
	// way: levels are hashed into the key.
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
	// Excluded from the graph cache key, so traced and untraced requests for
	// the same workload share cached graphs. Nil costs nothing.
	Obs *obs.Recorder
}

// Outcome is the result of one evaluation.
type Outcome struct {
	Makespan     int64
	CriticalPath int64
	TotalWork    int64
	CommVolume   int64
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
	// BusyPerProc is each process's total computation time.
	BusyPerProc []int64
}

// Evaluator caches task graphs and pools simulators. Safe for concurrent
// use.
type Evaluator struct {
	pool      *graph.Pool
	cacheSize int

	mu    sync.Mutex
	cache map[[32]byte]*cacheEntry
	seq   int64

	sims sync.Pool
}

type cacheEntry struct {
	tg       *taskgraph.TaskGraph
	lastUsed int64
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
		pool:      graph.NewPool(opt.Parallelism),
		cacheSize: size,
		cache:     make(map[[32]byte]*cacheEntry),
		sims:      sync.Pool{New: func() any { return flusim.NewSimulator() }},
	}
}

// graphKey hashes everything the built DAG depends on. Levels are hashed by
// content because ReassignLevels mutates them in place between epochs. The
// key never leaves the process, so the level and part vectors go into the
// hash as raw byte views, in the machine's byte order.
func graphKey(spec *Spec) [32]byte {
	h := sha256.New()
	var ints [8 * 8]byte
	for i, v := range [...]int{len(spec.MeshID), len(spec.Mesh.Level), spec.Mesh.NumInteriorFaces,
		len(spec.Part), spec.NumDomains, spec.iterations(), int(spec.FaceCost), int(spec.CellCost)} {
		binary.LittleEndian.PutUint64(ints[8*i:], uint64(v))
	}
	h.Write(ints[:])
	if spec.MeshID != "" {
		h.Write([]byte(spec.MeshID))
	} else {
		// Pointer identity: callers without a stable content id get cache
		// hits only while reusing the same mesh allocation, which is the
		// tuner/partbench pattern.
		fmt.Fprintf(h, "ptr:%p:%s", spec.Mesh, spec.Mesh.Name)
	}
	h.Write(bytesOf(spec.Mesh.Level))
	h.Write(bytesOf(spec.Part))
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// bytesOf views the backing array of s as bytes.
func bytesOf[T ~uint8 | ~int32](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
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
// when absent. Specs without a MeshID are cached too — the level and part
// content is part of the key, which in practice distinguishes decompositions
// of different meshes; callers needing strict isolation set distinct
// MeshIDs.
func (e *Evaluator) graphFor(spec *Spec) (tg *taskgraph.TaskGraph, cached bool, buildSeconds float64, err error) {
	var key [32]byte
	if e.cacheSize > 0 {
		key = graphKey(spec)
		e.mu.Lock()
		if ent, ok := e.cache[key]; ok {
			e.seq++
			ent.lastUsed = e.seq
			e.mu.Unlock()
			spec.Obs.Count("eval.graph_cache_hit", 1)
			return ent.tg, true, 0, nil
		}
		e.mu.Unlock()
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
		e.seq++
		if ent, ok := e.cache[key]; ok {
			// Another goroutine built it concurrently; keep theirs.
			ent.lastUsed = e.seq
			tg = ent.tg
			cached = true
		} else {
			e.cache[key] = &cacheEntry{tg: tg, lastUsed: e.seq}
			for len(e.cache) > e.cacheSize {
				var oldestKey [32]byte
				oldest := int64(1<<63 - 1)
				for k, ent := range e.cache {
					if ent.lastUsed < oldest {
						oldest, oldestKey = ent.lastUsed, k
					}
				}
				delete(e.cache, oldestKey)
			}
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
		CommVolume:      metrics.CommVolume(tg, spec.ProcOf),
		NumTasks:        tg.NumTasks(),
		NumDeps:         tg.NumDeps(),
		SimulateSeconds: simSeconds,
		Trace:           res.Trace,
		BusyPerProc:     res.BusyPerProc,
	}
	if w := spec.Sim.Cluster.WorkersPerProc; w > 0 && res.Makespan > 0 {
		cores := int64(spec.Sim.Cluster.NumProcs) * int64(w)
		out.Efficiency = float64(res.TotalWork) / (float64(res.Makespan) * float64(cores))
	}
	return out, nil
}

// EvaluateAll scores many specs, building each distinct graph once and
// fanning the simulations across the evaluator's pool. Outcomes align with
// specs; on error the corresponding outcome is nil and the joined error is
// returned (outcomes of other specs remain valid).
func (e *Evaluator) EvaluateAll(specs []Spec) ([]*Outcome, error) {
	outs := make([]*Outcome, len(specs))
	errs := make([]error, len(specs))
	graphs := make([]*taskgraph.TaskGraph, len(specs))
	cachedFlags := make([]bool, len(specs))
	buildTimes := make([]float64, len(specs))
	for i := range specs {
		graphs[i], cachedFlags[i], buildTimes[i], errs[i] = e.graphFor(&specs[i])
	}
	e.pool.RunN(len(specs), func(i int) {
		if errs[i] != nil {
			return
		}
		out, err := e.simulate(graphs[i], &specs[i])
		if err != nil {
			errs[i] = err
			return
		}
		out.GraphCached = cachedFlags[i]
		out.BuildSeconds = buildTimes[i]
		outs[i] = out
	})
	return outs, errors.Join(errs...)
}

// CacheLen reports how many task graphs are currently cached.
func (e *Evaluator) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}
