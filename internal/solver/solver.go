// Package solver is the FLUSEPA analogue of this reproduction: a complete
// task-distributed explicit finite-volume solver with adaptive time stepping.
// It wires the full pipeline together — mesh → partitioning strategy → task
// graph (Algorithm 1) → task-based runtime executing the FV kernels — and
// reports both real wall-clock behaviour and virtual-cluster makespans
// obtained by replaying the measured task durations through the discrete-
// event engine (the single-host stand-in for a multi-node run; DESIGN.md §2).
package solver

import (
	"context"
	"fmt"
	"math"
	"time"

	"tempart/internal/flusim"
	"tempart/internal/fv"
	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/runtime"
	"tempart/internal/taskgraph"
	"tempart/internal/trace"
)

// Model selects the physics executed by the tasks.
type Model int

const (
	// Scalar is the advection–diffusion model (fv.State) — light kernels.
	Scalar Model = iota
	// Euler is the compressible Euler model (fv.EulerState) — five
	// conserved variables, kernels ≈ 5× heavier, closest to the production
	// Navier-Stokes load.
	Euler
)

// String implements fmt.Stringer.
func (m Model) String() string {
	if m == Euler {
		return "euler"
	}
	return "scalar"
}

// Config assembles a solver.
type Config struct {
	// NumDomains is the partition size (task granularity).
	NumDomains int
	// Strategy is the partitioning strategy (SC_OC, MC_TL, ...).
	Strategy partition.Strategy
	// PartOpts tunes the partitioner.
	PartOpts partition.Options
	// Workers is the number of real worker goroutines. Defaults to 1.
	Workers int
	// Policy is the runtime scheduling policy.
	Policy runtime.Policy
	// Model selects scalar advection–diffusion (default) or compressible
	// Euler kernels.
	Model Model
	// FV sets the scalar physics; zero value uses fv.DefaultParams.
	FV fv.Params
	// EulerParams sets the Euler physics (used when Model == Euler).
	EulerParams fv.EulerParams
	// RecordTrace captures wall-clock spans of the last iteration.
	RecordTrace bool
	// Repart, when set, re-assesses temporal levels periodically during Run
	// and repartitions the mesh in place with internal/repart (see
	// RepartPolicy).
	Repart *RepartPolicy
}

// kernels is the model-independent interface the runtime drives.
type kernels interface {
	ComputeFaces(faces []int32)
	UpdateCells(cells []int32)
	Mass() float64
	CheckFinite() error
	// RefreshLevels rebuilds level-dependent caches after the mesh's
	// temporal levels changed in place (only legal between iterations).
	RefreshLevels()
}

// Solver holds the assembled pipeline.
type Solver struct {
	Mesh      *mesh.Mesh
	Partition *partition.Result
	TG        *taskgraph.TaskGraph
	// State is the scalar model's state (nil when Model == Euler).
	State *fv.State
	// EulerState is the Euler model's state (nil when Model == Scalar).
	EulerState *fv.EulerState

	k   kernels
	cfg Config
	// part is the current domain assignment in the solver mesh's own cell
	// order (Solver.Mesh is a domain-ordered copy of the input mesh, so
	// Partition.Part — input order — cannot index it).
	part []int32
}

// Report summarises a multi-iteration run.
type Report struct {
	// WallPerIteration is each iteration's end-to-end time.
	WallPerIteration []time.Duration
	// Durations holds the per-task minimum measured time across iterations
	// — the minimum filters out one-off interference (GC pauses, first-touch
	// page faults, OS scheduling) that would otherwise distort the virtual
	// replay of a single iteration.
	Durations []time.Duration
	// Trace is the last iteration's wall-clock trace when requested.
	Trace *trace.Trace
	// MassDriftRel is |mass_end − mass_start| / |mass_start|.
	MassDriftRel float64
	// Repartitions records every in-run repartition a Repart policy fired.
	Repartitions []RepartEvent
}

// New partitions the mesh, builds the task graph with object lists, and
// initialises the FV state with a Gaussian blob centred on the mesh's hot
// region (minimum-level cells).
func New(ctx context.Context, m *mesh.Mesh, cfg Config) (*Solver, error) {
	if cfg.NumDomains < 1 {
		return nil, fmt.Errorf("solver: NumDomains = %d", cfg.NumDomains)
	}
	res, err := partition.PartitionMesh(ctx, m, cfg.NumDomains, cfg.Strategy, cfg.PartOpts)
	if err != nil {
		return nil, err
	}
	return NewFromPartition(m, res, cfg)
}

// NewFromPartition assembles a solver over an existing decomposition,
// skipping the partitioning step. The result's NumParts must equal
// cfg.NumDomains (or cfg.NumDomains may be zero to adopt it).
//
// The mesh is renumbered so every domain's cells and faces are contiguous —
// the data-redistribution step of the production pipeline (paper Fig. 2
// extracts domains and hands each process compact arrays). Solver.Mesh is
// therefore a domain-ordered *copy* of the input mesh.
func NewFromPartition(m *mesh.Mesh, res *partition.Result, cfg Config) (*Solver, error) {
	if cfg.NumDomains == 0 {
		cfg.NumDomains = res.NumParts
	}
	if cfg.NumDomains != res.NumParts {
		return nil, fmt.Errorf("solver: config wants %d domains, partition has %d", cfg.NumDomains, res.NumParts)
	}
	// Reordering indexes by domain, so check the part vector before it.
	if len(res.Part) != m.NumCells() {
		return nil, fmt.Errorf("solver: %d domain assignments for %d cells", len(res.Part), m.NumCells())
	}
	for c, d := range res.Part {
		if d < 0 || int(d) >= res.NumParts {
			return nil, fmt.Errorf("solver: cell %d in domain %d, want [0, %d)", c, d, res.NumParts)
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.FV == (fv.Params{}) {
		cfg.FV = fv.DefaultParams()
	}
	ordered, newPart, _ := m.ReorderByDomain(res.Part, res.NumParts)
	tg, err := taskgraph.Build(ordered, newPart, cfg.NumDomains,
		taskgraph.Options{RecordObjects: true})
	if err != nil {
		return nil, err
	}
	s := &Solver{Mesh: ordered, Partition: res, TG: tg, cfg: cfg, part: newPart}
	cx, cy, cz := hotCentroid(ordered)
	switch cfg.Model {
	case Euler:
		s.EulerState = fv.NewEulerState(ordered, cfg.EulerParams)
		s.EulerState.InitBlast(cx, cy, cz, 0.25, 2.0)
		s.k = s.EulerState
	default:
		s.State = fv.NewState(ordered, cfg.FV)
		s.State.InitGaussian(cx, cy, cz, 0.25, 1.0)
		s.k = s.State
	}
	return s, nil
}

// hotCentroid returns the mean centroid of the finest-level cells.
func hotCentroid(m *mesh.Mesh) (x, y, z float64) {
	var n float64
	for c := 0; c < m.NumCells(); c++ {
		if m.Level[c] == 0 {
			x += float64(m.CX[c])
			y += float64(m.CY[c])
			z += float64(m.CZ[c])
			n++
		}
	}
	if n == 0 {
		return 0.5, 0.5, 0.5
	}
	return x / n, y / n, z / n
}

// kernel executes one task's objects through the model's FV kernels.
func (s *Solver) kernel(task *taskgraph.Task) {
	objs := s.TG.Objects[task.ID]
	if task.Kind == taskgraph.FaceKind {
		s.k.ComputeFaces(objs)
	} else {
		s.k.UpdateCells(objs)
	}
}

// Run executes the given number of iterations through the task runtime. An
// iteration's task graph is re-executed per iteration with a barrier in
// between (the cross-iteration dependency chain collapses to a barrier since
// the last tasks of iteration i write what the first tasks of i+1 read).
func (s *Solver) Run(iterations int) (*Report, error) {
	return s.RunContext(context.Background(), iterations)
}

// RunContext is Run with cancellation: ctx is checked between iterations and
// threaded through repartitioning when a Repart policy is configured.
func (s *Solver) RunContext(ctx context.Context, iterations int) (*Report, error) {
	if iterations < 1 {
		return nil, fmt.Errorf("solver: iterations = %d", iterations)
	}
	rep := &Report{}
	mass0 := s.k.Mass()
	for it := 0; it < iterations; it++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("solver: %w", err)
		}
		cfg := runtime.Config{
			Workers: s.cfg.Workers,
			Policy:  s.cfg.Policy,
			Seed:    int64(it),
		}
		if it == iterations-1 {
			cfg.RecordTrace = s.cfg.RecordTrace
		}
		r, err := runtime.Execute(s.TG, s.kernel, cfg)
		if err != nil {
			return nil, err
		}
		rep.WallPerIteration = append(rep.WallPerIteration, r.Wall)
		if rep.Durations == nil {
			rep.Durations = r.Durations
		} else {
			for i, d := range r.Durations {
				if d < rep.Durations[i] {
					rep.Durations[i] = d
				}
			}
		}
		rep.Trace = r.Trace
		if s.cfg.Repart != nil && it+1 < iterations {
			if err := s.maybeRepartition(ctx, it, rep); err != nil {
				return nil, err
			}
		}
	}
	if err := s.k.CheckFinite(); err != nil {
		return nil, err
	}
	mass1 := s.k.Mass()
	if mass0 != 0 {
		rep.MassDriftRel = math.Abs(mass1-mass0) / math.Abs(mass0)
	}
	return rep, nil
}

// VirtualMakespan replays the report's measured durations on a simulated
// cluster, pinning each domain's tasks to its process — the FLUSEPA-style
// distributed execution estimate.
func (s *Solver) VirtualMakespan(rep *Report, cluster flusim.Cluster, strategy flusim.Strategy, recordTrace bool) (*flusim.Result, error) {
	procOf := flusim.BlockMap(s.cfg.NumDomains, cluster.NumProcs)
	return runtime.VirtualSchedule(s.TG, rep.Durations, procOf, cluster, strategy, recordTrace)
}
