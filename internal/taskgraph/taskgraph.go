// Package taskgraph implements the paper's Algorithm 1: generating the task
// DAG of one solver iteration from a mesh, its temporal levels, and a domain
// decomposition.
//
// One iteration is divided into 2^τmax subiterations. Each subiteration
// contains one phase per active temporal level, traversed in descending
// order. A phase dedicated to level τ processes, for every domain, first the
// faces of level τ and then the cells of level τ, each split into one task
// for *external* objects (those bordering another domain — the tasks whose
// results must be communicated) and one for *internal* objects. Empty tasks
// are not generated, which is exactly why partitioning controls the task
// graph's shape: a domain with no cells of level τ injects nothing into
// phase τ (paper Fig. 8).
//
// Dependencies follow the data flow of the explicit scheme:
//   - a face task reads its adjacent cells → depends on the latest tasks
//     that wrote those cells (possibly in an earlier phase of the same
//     subiteration, since coarser levels update first, or in an earlier
//     subiteration);
//   - a cell task consumes its faces' fluxes → depends on the latest tasks
//     that wrote those faces;
//   - successive updates of the same object serialize (write-after-write).
//
// Cross-domain dependencies (a task of domain A depending on a task of
// domain B) are the communications; internal/external task splitting lets a
// runtime overlap them.
//
// Construction works at group granularity. A group is the (domain, level,
// external) bucket of faces or of cells that one task processes; every
// activation of a level emits one task per non-empty group of that level, and
// that task writes every object of the group, which no other task writes. So
// all objects of a group always share one last writer — the group's latest
// task — and the per-object data flow above reduces exactly to which groups
// touch which: a face group reads the cell groups its faces border, a cell
// group the face groups of its cells. One pass over the faces records that
// adjacency. At each activation a task's predecessors are then the latest
// tasks of its adjacent groups plus its own group's previous task. They are
// distinct (each task writes a single group), so sorting them yields the
// same CSR row a per-object scan would, at a cost independent of how many
// objects the activation touches.
package taskgraph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"tempart/internal/mesh"
	"tempart/internal/obs"
	"tempart/internal/temporal"
)

// Kind distinguishes face-processing tasks from cell-processing tasks.
type Kind uint8

const (
	// FaceKind tasks compute fluxes across faces.
	FaceKind Kind = iota
	// CellKind tasks update cell values from accumulated fluxes.
	CellKind
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == FaceKind {
		return "faces"
	}
	return "cells"
}

// Task is one node of the DAG.
type Task struct {
	// ID is the task's index in TaskGraph.Tasks; predecessors always have
	// smaller IDs (construction order is a topological order).
	ID int32
	// Iter is the iteration the task belongs to (0 for single-iteration
	// graphs).
	Iter int32
	// Sub is the subiteration within the iteration, in [0, 2^τmax).
	Sub int32
	// Tau is the phase's temporal level.
	Tau temporal.Level
	// Kind is faces or cells.
	Kind Kind
	// Domain is the extraction domain.
	Domain int32
	// External marks tasks over objects bordering another domain.
	External bool
	// NumObjects is how many faces/cells the task processes.
	NumObjects int32
	// Cost is the task's work in abstract units.
	Cost int64
}

// TaskGraph is the DAG of one iteration.
type TaskGraph struct {
	Tasks []Task
	// PredStart/Preds form a CSR list of each task's dependencies.
	PredStart []int32
	Preds     []int32
	// SuccStart/Succs is the transposed CSR (built on demand via SuccsOf).
	SuccStart []int32
	Succs     []int32

	// Objects[t] lists the face/cell ids task t processes; populated only
	// when Options.RecordObjects is set.
	Objects [][]int32

	NumDomains int
	Scheme     temporal.Scheme

	// Lazily computed derived data, guarded so that many simulations can
	// share one graph concurrently (the eval fan-out does exactly that).
	// Task costs must not be mutated after the first SuccsOf/CriticalPath/
	// TotalWork call.
	lazyMu      sync.Mutex
	succsReady  atomic.Bool
	boundsReady atomic.Bool
	cp          int64
	totalWork   int64
}

// Options tunes task generation.
type Options struct {
	// FaceCost and CellCost are the work units per processed face/cell.
	// Zero values default to 1.
	FaceCost, CellCost int32
	// RecordObjects stores each task's object-id list in TaskGraph.Objects
	// so an executor can run real kernels over them. Lists alias shared
	// group storage and must be treated as read-only.
	RecordObjects bool
	// Parallelism is ignored: the build is serial. The field remains only
	// because existing callers still set it.
	Parallelism int
	// Obs, when non-nil, records build-phase spans (classify/group/census/
	// discover) into the given recorder. Nil (the default) is a
	// zero-allocation no-op and never perturbs the build.
	Obs *obs.Recorder
}

func (o Options) withDefaults() Options {
	if o.FaceCost == 0 {
		o.FaceCost = 1
	}
	if o.CellCost == 0 {
		o.CellCost = 1
	}
	return o
}

// NumTasks returns the task count.
func (tg *TaskGraph) NumTasks() int { return len(tg.Tasks) }

// NumDeps returns the dependency-edge count.
func (tg *TaskGraph) NumDeps() int { return len(tg.Preds) }

// PredsOf returns the dependency list of task t (aliases internal storage).
func (tg *TaskGraph) PredsOf(t int32) []int32 { return tg.Preds[tg.PredStart[t]:tg.PredStart[t+1]] }

// SuccsOf returns the successor list of task t, building the transpose on
// first use. Safe for concurrent use.
func (tg *TaskGraph) SuccsOf(t int32) []int32 {
	if !tg.succsReady.Load() {
		tg.ensureSuccs()
	}
	return tg.Succs[tg.SuccStart[t]:tg.SuccStart[t+1]]
}

func (tg *TaskGraph) ensureSuccs() {
	tg.lazyMu.Lock()
	defer tg.lazyMu.Unlock()
	if tg.succsReady.Load() {
		return
	}
	if tg.SuccStart == nil {
		tg.buildSuccs()
	}
	tg.succsReady.Store(true)
}

func (tg *TaskGraph) buildSuccs() {
	n := len(tg.Tasks)
	deg := make([]int32, n+1)
	for _, p := range tg.Preds {
		deg[p+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	succs := make([]int32, len(tg.Preds))
	fill := make([]int32, n)
	copy(fill, deg[:n])
	for t := 0; t < n; t++ {
		for _, p := range tg.PredsOf(int32(t)) {
			succs[fill[p]] = int32(t)
			fill[p]++
		}
	}
	tg.SuccStart, tg.Succs = deg, succs
}

// TotalWork returns the summed cost of all tasks (cached after first call;
// safe for concurrent use).
func (tg *TaskGraph) TotalWork() int64 {
	if !tg.boundsReady.Load() {
		tg.ensureBounds()
	}
	return tg.totalWork
}

// CriticalPath returns the longest cost-weighted path through the DAG — the
// absolute lower bound on any schedule's makespan regardless of core count.
// Cached after the first call; safe for concurrent use.
func (tg *TaskGraph) CriticalPath() int64 {
	if !tg.boundsReady.Load() {
		tg.ensureBounds()
	}
	return tg.cp
}

func (tg *TaskGraph) ensureBounds() {
	tg.lazyMu.Lock()
	defer tg.lazyMu.Unlock()
	if tg.boundsReady.Load() {
		return
	}
	finish := make([]int64, len(tg.Tasks))
	var cp, work int64
	for t := range tg.Tasks {
		var start int64
		for _, p := range tg.PredsOf(int32(t)) {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[t] = start + tg.Tasks[t].Cost
		if finish[t] > cp {
			cp = finish[t]
		}
		work += tg.Tasks[t].Cost
	}
	tg.cp, tg.totalWork = cp, work
	tg.boundsReady.Store(true)
}

// Validate checks DAG invariants: topological IDs, in-range domains and
// subiterations, sorted unique preds, positive costs for non-empty tasks.
func (tg *TaskGraph) Validate() error {
	nsub := int32(tg.Scheme.NumSubiterations())
	for i := range tg.Tasks {
		t := &tg.Tasks[i]
		if t.ID != int32(i) {
			return fmt.Errorf("taskgraph: task %d has ID %d", i, t.ID)
		}
		if t.Sub < 0 || t.Sub >= nsub {
			return fmt.Errorf("taskgraph: task %d subiteration %d out of range", i, t.Sub)
		}
		if t.Domain < 0 || int(t.Domain) >= tg.NumDomains {
			return fmt.Errorf("taskgraph: task %d domain %d out of range", i, t.Domain)
		}
		if t.NumObjects <= 0 {
			return fmt.Errorf("taskgraph: task %d is empty", i)
		}
		if t.Cost <= 0 {
			return fmt.Errorf("taskgraph: task %d has cost %d", i, t.Cost)
		}
		preds := tg.PredsOf(int32(i))
		for j, p := range preds {
			if p >= int32(i) {
				return fmt.Errorf("taskgraph: task %d depends on later task %d", i, p)
			}
			if j > 0 && preds[j-1] >= p {
				return fmt.Errorf("taskgraph: task %d preds not sorted-unique", i)
			}
		}
	}
	return nil
}

// faceLevel is the temporal level of a face: the finer (minimum) level of
// its adjacent cells, or the cell's own level for boundary faces.
func faceLevel(m *mesh.Mesh, f mesh.Face) temporal.Level {
	l := m.Level[f.C0]
	if !f.IsBoundary() && m.Level[f.C1] < l {
		l = m.Level[f.C1]
	}
	return l
}

// Build generates the task graph of one iteration for the given domain
// decomposition (part[cell] ∈ [0, numDomains)).
func Build(m *mesh.Mesh, part []int32, numDomains int, opt Options) (*TaskGraph, error) {
	return BuildIterations(m, part, numDomains, 1, opt)
}

// BuildIterations chains several iterations into one DAG without a global
// barrier between them: the first tasks of iteration i+1 depend only on the
// tasks of iteration i that last wrote the objects they touch, so a process
// that finishes its share of an iteration early can start the next one —
// cross-iteration pipelining, which is how the task-based FLUSEPA overlaps
// iterations in production.
func BuildIterations(m *mesh.Mesh, part []int32, numDomains, iterations int, opt Options) (*TaskGraph, error) {
	if len(part) != m.NumCells() {
		return nil, fmt.Errorf("taskgraph: %d domain assignments for %d cells", len(part), m.NumCells())
	}
	if iterations < 1 {
		return nil, fmt.Errorf("taskgraph: iterations = %d, want >= 1", iterations)
	}
	for c, d := range part {
		if d < 0 || int(d) >= numDomains {
			return nil, fmt.Errorf("taskgraph: cell %d in domain %d, want [0, %d)", c, d, numDomains)
		}
	}
	opt = opt.withDefaults()
	scheme := m.Scheme()
	tg := &TaskGraph{NumDomains: numDomains, Scheme: scheme}

	root := opt.Obs.Start("taskgraph/build")
	if root.Active() {
		root.SetInt("cells", int64(m.NumCells()))
		root.SetInt("faces", int64(m.NumFaces()))
		root.SetInt("domains", int64(numDomains))
		root.SetInt("iterations", int64(iterations))
	}

	// Classify every object into its group (see groupIndex). A cell is
	// external iff some face-neighbour is in another domain; an interior cut
	// face belongs to C0's domain and is external, same-domain and boundary
	// faces are internal.
	clspan := root.Start("taskgraph/classify")
	numLevels := scheme.NumLevels()
	cellGroup := make([]int32, m.NumCells())
	for c, d := range part {
		cellGroup[c] = groupIndex(d, m.Level[c], numLevels, false)
	}
	faceGroup := make([]int32, m.NumFaces())
	for i, f := range m.Faces {
		cut := !f.IsBoundary() && part[f.C0] != part[f.C1]
		if cut {
			cellGroup[f.C0] |= 1
			cellGroup[f.C1] |= 1
		}
		faceGroup[i] = groupIndex(part[f.C0], faceLevel(m, f), numLevels, cut)
	}
	clspan.End()

	// Bucket the objects by group once, and record which groups touch which:
	// the DAG depends on nothing else.
	gspan := root.Start("taskgraph/group")
	numGroups := numDomains * numLevels * 2
	cellGroups := groupObjects(cellGroup, numGroups)
	faceGroups := groupObjects(faceGroup, numGroups)
	faceAdj := faceAdjacency(m, faceGroups, cellGroup, numGroups)
	cellAdj := faceAdj.transpose(numGroups)
	gspan.End()

	// Phase schedule, hoisted out of the iteration loop.
	cspan := root.Start("taskgraph/census")
	nsub := scheme.NumSubiterations()
	levelsBySub := make([][]temporal.Level, nsub)
	activations := make([]int, numLevels)
	for sub := 0; sub < nsub; sub++ {
		levelsBySub[sub] = scheme.ActiveLevels(sub)
		for _, tau := range levelsBySub[sub] {
			activations[tau]++
		}
	}
	// Exact task census and a tight bound on the edges: every non-empty
	// group of level τ emits one task per activation of τ per iteration,
	// with at most one pred per adjacent group plus its own previous task.
	totalTasks, maxPreds := 0, 0
	for g := 0; g < numGroups; g++ {
		act := activations[(g/2)%numLevels] // g's level, by groupIndex's layout
		if len(faceGroups.of(int32(g))) > 0 {
			totalTasks += act
			maxPreds += act * (len(faceAdj.of(int32(g))) + 1)
		}
		if len(cellGroups.of(int32(g))) > 0 {
			totalTasks += act
			maxPreds += act * (len(cellAdj.of(int32(g))) + 1)
		}
	}
	totalTasks *= iterations
	maxPreds *= iterations
	cspan.End()

	tg.Tasks = make([]Task, 0, totalTasks)
	if opt.RecordObjects {
		tg.Objects = make([][]int32, 0, totalTasks)
	}
	predStart := make([]int32, 1, totalTasks+1)
	preds := make([]int32, 0, maxPreds)

	// lastFace[g] / lastCell[g] is the latest task that wrote face / cell
	// group g, the last writer of every object in it (-1 before the first).
	lastFace := make([]int32, numGroups)
	lastCell := make([]int32, numGroups)
	for g := range lastFace {
		lastFace[g] = -1
		lastCell[g] = -1
	}

	dspan := root.Start("taskgraph/discover")
	for iter := 0; iter < iterations; iter++ {
		for sub := 0; sub < nsub; sub++ {
			for _, tau := range levelsBySub[sub] {
				for _, kind := range [2]Kind{FaceKind, CellKind} {
					// A face task reads its cells and rewrites its faces; a
					// cell task reads its faces and rewrites its cells.
					groups, adj, reads, own, unitCost := faceGroups, faceAdj, lastCell, lastFace, opt.FaceCost
					if kind == CellKind {
						groups, adj, reads, own, unitCost = cellGroups, cellAdj, lastFace, lastCell, opt.CellCost
					}
					for d := 0; d < numDomains; d++ {
						internal := groupIndex(int32(d), tau, numLevels, false)
						// External objects first: their results feed other
						// domains, so runtimes can overlap communication.
						for _, g := range [2]int32{internal | 1, internal} {
							objs := groups.of(g)
							if len(objs) == 0 {
								continue
							}
							id := int32(len(tg.Tasks))
							first := len(preds)
							for _, a := range adj.of(g) {
								if w := reads[a]; w >= 0 {
									preds = append(preds, w)
								}
							}
							if w := own[g]; w >= 0 {
								preds = append(preds, w)
							}
							// Each task writes one group, so these writers
							// are distinct: sorting alone gives the CSR row.
							slices.Sort(preds[first:])
							own[g] = id
							predStart = append(predStart, int32(len(preds)))
							tg.Tasks = append(tg.Tasks, Task{
								ID: id, Iter: int32(iter), Sub: int32(sub),
								Tau: tau, Kind: kind, Domain: int32(d),
								External: g&1 == 1, NumObjects: int32(len(objs)),
								Cost: int64(unitCost) * int64(len(objs)),
							})
							if opt.RecordObjects {
								tg.Objects = append(tg.Objects, objs)
							}
						}
					}
				}
			}
		}
	}
	dspan.End()
	tg.PredStart = predStart
	tg.Preds = preds
	if root.Active() {
		root.SetInt("tasks", int64(len(tg.Tasks)))
		root.SetInt("deps", int64(len(tg.Preds)))
	}
	root.End()
	return tg, nil
}

// groupIndex numbers the (domain, level, external) group of faces or of
// cells: (domain*numLevels+level)*2 + external.
func groupIndex(domain int32, level temporal.Level, numLevels int, external bool) int32 {
	g := (domain*int32(numLevels) + int32(level)) * 2
	if external {
		g |= 1
	}
	return g
}

// csr is a list of int32 lists: list i is items[start[i]:start[i+1]].
type csr struct {
	start []int32
	items []int32
}

func (c csr) of(i int32) []int32 { return c.items[c.start[i]:c.start[i+1]] }

// groupObjects buckets object ids by group (groupOf[id]); ids within a group
// stay ascending.
func groupObjects(groupOf []int32, numGroups int) csr {
	c := csr{start: make([]int32, numGroups+1), items: make([]int32, len(groupOf))}
	for _, g := range groupOf {
		c.start[g+1]++
	}
	for g := 0; g < numGroups; g++ {
		c.start[g+1] += c.start[g]
	}
	cursor := slices.Clone(c.start[:numGroups])
	for i, g := range groupOf {
		c.items[cursor[g]] = int32(i)
		cursor[g]++
	}
	return c
}

// faceAdjacency lists, for every face group, the distinct cell groups its
// faces touch.
func faceAdjacency(m *mesh.Mesh, faceGroups csr, cellGroup []int32, numGroups int) csr {
	adj := csr{start: make([]int32, numGroups+1)}
	seen := make([]int32, numGroups) // seen[cg] == g+1: cg already listed for g
	for g := int32(0); g < int32(numGroups); g++ {
		for _, f := range faceGroups.of(g) {
			face := m.Faces[f]
			if cg := cellGroup[face.C0]; seen[cg] != g+1 {
				seen[cg] = g + 1
				adj.items = append(adj.items, cg)
			}
			if face.IsBoundary() {
				continue
			}
			if cg := cellGroup[face.C1]; seen[cg] != g+1 {
				seen[cg] = g + 1
				adj.items = append(adj.items, cg)
			}
		}
		adj.start[g+1] = int32(len(adj.items))
	}
	return adj
}

// transpose returns the reverse relation: list j holds every i whose list
// holds j.
func (c csr) transpose(n int) csr {
	t := csr{start: make([]int32, n+1), items: make([]int32, len(c.items))}
	for _, j := range c.items {
		t.start[j+1]++
	}
	for j := 0; j < n; j++ {
		t.start[j+1] += t.start[j]
	}
	cursor := slices.Clone(t.start[:n])
	for i := 0; i+1 < len(c.start); i++ {
		for _, j := range c.of(int32(i)) {
			t.items[cursor[j]] = int32(i)
			cursor[j]++
		}
	}
	return t
}
