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
// group the face groups of its cells. Two in-order passes over the faces
// count the groups and record that adjacency without bucketing any object.
// At each activation a task's predecessors are then the latest tasks of its
// adjacent groups plus its own group's previous task. They are distinct
// (each task writes a single group), so sorting them yields the same CSR row
// a per-object scan would, at a cost independent of how many objects the
// activation touches.
package taskgraph

import (
	"fmt"
	"math"
	"math/bits"
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
	// TotalWork/BottomLevels call.
	lazyMu      sync.Mutex
	succsReady  atomic.Bool
	boundsReady atomic.Bool
	cp          int64
	totalWork   int64
	blevel      []int64
}

// Options tunes task generation.
type Options struct {
	// FaceCost and CellCost are the work units per processed face/cell.
	// Zero values default to 1; negative ones are an error.
	FaceCost, CellCost int32
	// RecordObjects stores each task's object-id list in TaskGraph.Objects
	// so an executor can run real kernels over them. Lists alias shared
	// group storage and must be treated as read-only. Only this option makes
	// the build bucket faces and cells by group.
	RecordObjects bool
	// Parallelism is ignored: the build is serial. The field remains only
	// because existing callers still set it.
	Parallelism int
	// Obs, when non-nil, records build-phase spans (classify/census/group/
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
// absolute lower bound on any schedule's makespan regardless of core count,
// and the largest bottom level. Cached after the first call; safe for
// concurrent use.
func (tg *TaskGraph) CriticalPath() int64 {
	if !tg.boundsReady.Load() {
		tg.ensureBounds()
	}
	return tg.cp
}

// BottomLevels returns each task's bottom level: the cost of the longest
// cost-weighted path from the task, its own cost included, to a sink — the
// priority of a critical-path-first scheduler. Computed with the other
// bounds and cached; safe for concurrent use. The slice is shared: read it,
// never modify it.
func (tg *TaskGraph) BottomLevels() []int64 {
	if !tg.boundsReady.Load() {
		tg.ensureBounds()
	}
	return tg.blevel
}

func (tg *TaskGraph) ensureBounds() {
	tg.lazyMu.Lock()
	defer tg.lazyMu.Unlock()
	if tg.boundsReady.Load() {
		return
	}
	// Backward over the topological order: when t is reached, bl[t] holds
	// the largest bottom level of its successors, which all have larger ids.
	bl := make([]int64, len(tg.Tasks))
	var cp, work int64
	for t := len(tg.Tasks) - 1; t >= 0; t-- {
		cost := tg.Tasks[t].Cost
		b := bl[t] + cost
		bl[t] = b
		cp = max(cp, b)
		work += cost
		for _, p := range tg.PredsOf(int32(t)) {
			bl[p] = max(bl[p], b)
		}
	}
	tg.blevel, tg.cp, tg.totalWork = bl, cp, work
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
	if opt.FaceCost < 0 || opt.CellCost < 0 {
		return nil, fmt.Errorf("taskgraph: face cost %d, cell cost %d, want >= 0", opt.FaceCost, opt.CellCost)
	}
	scheme := m.Scheme()
	numLevels := scheme.NumLevels()
	numGroups := numDomains * numLevels * 2
	if numDomains < 0 || numGroups > math.MaxInt32 {
		return nil, fmt.Errorf("taskgraph: %d domains × %d levels, want [0, 2^31) groups", numDomains, numLevels)
	}
	opt = opt.withDefaults()
	tg := &TaskGraph{NumDomains: numDomains, Scheme: scheme}

	root := opt.Obs.Start("taskgraph/build")
	if root.Active() {
		root.SetInt("cells", int64(m.NumCells()))
		root.SetInt("faces", int64(m.NumFaces()))
		root.SetInt("domains", int64(numDomains))
		root.SetInt("iterations", int64(iterations))
	}

	// Every per-group array lives in one slab.
	slab := make([]int32, 10*numGroups+2+numLevels)
	next := func(n int) []int32 {
		s := slab[:n:n]
		slab = slab[n:]
		return s
	}
	faceCount, cellCount := next(numGroups), next(numGroups)
	lastFace, lastCell, lastCut := next(numGroups), next(numGroups), next(numGroups)
	pairCount, cursor, seen := next(numGroups), next(numGroups), next(numGroups)
	faceAdj := csr{start: next(numGroups + 1)}
	cellAdj := csr{start: next(numGroups + 1)}
	activations := next(numLevels)
	for g := range lastFace {
		lastFace[g], lastCell[g], lastCut[g] = -1, -1, -1
	}

	// Classify. The cell pass checks each domain and packs the cell into one
	// word (see packing), its external bit still clear.
	clspan := root.Start("taskgraph/classify")
	pk := newPacking(numLevels)
	words := make([]uint32, len(part))
	for c, d := range part {
		if uint32(d) >= uint32(numDomains) {
			clspan.End()
			root.End()
			return nil, fmt.Errorf("taskgraph: cell %d in domain %d, want [0, %d)", c, d, numDomains)
		}
		words[c] = uint32(d)<<pk.shift | uint32(m.Level[c])<<1
	}
	// An interior face whose cells lie in different domains is cut: both its
	// cells become external, which fixes everything about the face in this
	// pass. Its far cell C1 is the only cell any face reads outside the face's
	// own domain (C0's), so cut faces alone record (face group, cell group)
	// pairs, skipping a repeat of the face group's previous pair.
	interior := m.Faces[:m.NumInteriorFaces]
	pairs := make([]groupPair, numGroups+1) // doubled when full
	numPairs := 0
	for _, f := range interior {
		w0, w1 := words[f.C0], words[f.C1]
		if (w0^w1)>>pk.shift == 0 {
			continue
		}
		words[f.C0], words[f.C1] = w0|1, w1|1
		if numPairs == len(pairs) {
			pairs = slices.Grow(pairs, len(pairs))
			pairs = pairs[:cap(pairs)]
		}
		g, cg := pk.faceGroup(w0, w1), pk.group(w1|1)
		pairs[numPairs] = groupPair{g, cg}
		if lastCut[g] != cg {
			numPairs++
		}
		lastCut[g] = cg
	}
	pairs = pairs[:numPairs]
	for _, w := range words {
		cellCount[pk.group(w)]++
	}
	clspan.End()

	// Census: one more in-order pass counts the faces of every class, the
	// pair of its cells' words seen from C0's domain (see packing.class). A
	// class fixes the face's group and the own-domain cell groups it reads,
	// so the class counts give each face group's size and slot mask: the
	// dense half of the adjacency.
	cspan := root.Start("taskgraph/census")
	classes := make([]int32, 2*numGroups*int(pk.span))
	for _, f := range interior {
		classes[pk.class(words[f.C0], words[f.C1])]++
	}
	// Boundary faces are the suffix and read their C0 alone.
	for _, f := range m.Faces[m.NumInteriorFaces:] {
		w := words[f.C0]
		classes[pk.class(w, w)]++
	}
	slots := make([]uint64, numGroups)
	cls := 0
	for d := 0; d < numDomains; d++ {
		for cut := uint32(0); cut < 2; cut++ {
			for s0 := uint32(0); s0 < uint32(pk.span); s0++ {
				for s1 := uint32(0); s1 < uint32(pk.span); s1++ {
					if n := classes[cls]; n > 0 {
						g := int32(d)*pk.span + int32(min(s0, s1)&^1|cut)
						faceCount[g] += n
						slots[g] |= uint64(1)<<s0 | uint64(1-cut)<<s1
					}
					cls++
				}
			}
		}
	}
	cspan.End()

	// Lay the adjacency out: each face group lists its own-domain slots, then
	// its far cell groups bucketed and deduplicated. Order within a list is
	// free, since every task sorts its preds.
	gspan := root.Start("taskgraph/group")
	for _, p := range pairs {
		pairCount[p.face]++
	}
	for g := 0; g < numGroups; g++ {
		faceAdj.start[g+1] = faceAdj.start[g] + int32(bits.OnesCount64(slots[g])) + pairCount[g]
	}
	faceAdj.items = make([]int32, faceAdj.start[numGroups])
	for g := 0; g < numGroups; g++ {
		i, base := faceAdj.start[g], int32(g)-int32(g)%pk.span
		for sl := slots[g]; sl != 0; sl &= sl - 1 {
			faceAdj.items[i] = base + int32(bits.TrailingZeros64(sl))
			i++
		}
		cursor[g] = i
	}
	for _, p := range pairs {
		faceAdj.items[cursor[p.face]] = p.cell
		cursor[p.face]++
	}
	// Compact each list's far cell groups to distinct ones; a group's own
	// slots are distinct and in another domain already.
	w := int32(0)
	for g := 0; g < numGroups; g++ {
		lo, hi := faceAdj.start[g], faceAdj.start[g+1]
		faceAdj.start[g] = w
		own := hi - lo - pairCount[g]
		copy(faceAdj.items[w:], faceAdj.items[lo:lo+own])
		w += own
		for _, cg := range faceAdj.items[lo+own : hi] {
			if seen[cg] != int32(g)+1 {
				seen[cg] = int32(g) + 1
				faceAdj.items[w] = cg
				w++
			}
		}
	}
	faceAdj.start[numGroups] = w
	faceAdj.items = faceAdj.items[:w]
	cellAdj.items = faceAdj.transposeInto(cellAdj.start, cursor)

	var faceObjs, cellObjs csr
	if opt.RecordObjects {
		cellObjs = bucket(cellCount, len(words), func(c int) int32 { return pk.group(words[c]) })
		faceObjs = bucket(faceCount, m.NumFaces(), func(i int) int32 {
			f := m.Faces[i]
			if i >= m.NumInteriorFaces {
				return pk.faceGroup(words[f.C0], words[f.C0])
			}
			return pk.faceGroup(words[f.C0], words[f.C1])
		})
	}
	gspan.End()

	// Exact task census and a tight bound on the edges: every non-empty
	// group of level τ emits one task per activation of τ per iteration,
	// with at most one pred per adjacent group plus its own previous task.
	nsub := scheme.NumSubiterations()
	for sub := 0; sub < nsub; sub++ {
		for tau := int(scheme.MaxActiveLevel(sub)); tau >= 0; tau-- {
			activations[tau]++
		}
	}
	totalTasks, maxPreds := 0, 0
	for g := 0; g < numGroups; g++ {
		act := int(activations[(g/2)%numLevels]) // g's level, by groupIndex's layout
		if faceCount[g] > 0 {
			totalTasks += act
			maxPreds += act * (len(faceAdj.of(int32(g))) + 1)
		}
		if cellCount[g] > 0 {
			totalTasks += act
			maxPreds += act * (len(cellAdj.of(int32(g))) + 1)
		}
	}
	totalTasks *= iterations
	maxPreds *= iterations

	tg.Tasks = make([]Task, 0, totalTasks)
	if opt.RecordObjects {
		tg.Objects = make([][]int32, 0, totalTasks)
	}
	predStart := make([]int32, 1, totalTasks+1)
	preds := make([]int32, 0, maxPreds)

	// lastFace[g] / lastCell[g] is the latest task that wrote face / cell
	// group g, the last writer of every object in it (-1 before the first).
	dspan := root.Start("taskgraph/discover")
	for iter := 0; iter < iterations; iter++ {
		for sub := 0; sub < nsub; sub++ {
			for t := int(scheme.MaxActiveLevel(sub)); t >= 0; t-- {
				tau := temporal.Level(t)
				for _, kind := range [2]Kind{FaceKind, CellKind} {
					// A face task reads its cells and rewrites its faces; a
					// cell task reads its faces and rewrites its cells.
					count, objs, adj, reads, own, unitCost := faceCount, faceObjs, faceAdj, lastCell, lastFace, opt.FaceCost
					if kind == CellKind {
						count, objs, adj, reads, own, unitCost = cellCount, cellObjs, cellAdj, lastFace, lastCell, opt.CellCost
					}
					for d := 0; d < numDomains; d++ {
						internal := groupIndex(int32(d), tau, numLevels, false)
						// External objects first: their results feed other
						// domains, so runtimes can overlap communication.
						for _, g := range [2]int32{internal | 1, internal} {
							n := count[g]
							if n == 0 {
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
								External: g&1 == 1, NumObjects: n,
								Cost: int64(unitCost) * int64(n),
							})
							if opt.RecordObjects {
								tg.Objects = append(tg.Objects, objs.of(g))
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

// packing lays a cell's group out in one word: domain<<shift | level<<1 |
// external. The low shift bits are the cell's slot within its domain, and
// group = domain*span + slot, as groupIndex numbers it.
type packing struct {
	shift uint
	low   uint32
	span  int32
}

func newPacking(numLevels int) packing {
	shift := uint(bits.Len(uint(2*numLevels - 1)))
	return packing{shift: shift, low: 1<<shift - 1, span: int32(2 * numLevels)}
}

// group is the cell group of word w.
func (p packing) group(w uint32) int32 { return int32(w>>p.shift)*p.span + int32(w&p.low) }

// faceGroup is the group of a face whose cells have words w0 (C0) and w1 (C1,
// or C0 again for a boundary face): C0's domain, the finer level, external
// iff the domains differ.
func (p packing) faceGroup(w0, w1 uint32) int32 {
	g := int32(w0>>p.shift)*p.span + int32(min(w0&p.low, w1&p.low)&^1)
	if (w0^w1)>>p.shift != 0 {
		g |= 1
	}
	return g
}

// class numbers the face whose cells have words w0 (C0) and w1 (C1, or C0
// again for a boundary face) by C0's domain, whether the face is cut, and
// both cells' slots: ((domain*2 + cut)*span + slot0)*span + slot1.
func (p packing) class(w0, w1 uint32) uint32 {
	cut := uint32(0)
	if (w0^w1)>>p.shift != 0 {
		cut = 1
	}
	span := uint32(p.span)
	return (((w0>>p.shift)*2+cut)*span+w0&p.low)*span + w1&p.low
}

// groupPair is one (face group, cell group) adjacency from a cut face's far
// cell.
type groupPair struct{ face, cell int32 }

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

// bucket lists the ids [0, n) by group, groupOf(id), into lists sized by
// counts; ids within a group stay ascending.
func bucket(counts []int32, n int, groupOf func(int) int32) csr {
	c := csr{start: make([]int32, len(counts)+1), items: make([]int32, n)}
	for g, k := range counts {
		c.start[g+1] = c.start[g] + k
	}
	cursor := slices.Clone(c.start[:len(counts)])
	for i := 0; i < n; i++ {
		g := groupOf(i)
		c.items[cursor[g]] = int32(i)
		cursor[g]++
	}
	return c
}

// transposeInto returns the items of the reverse relation, whose list j holds
// every i whose list holds j; start (len n+1, zeroed) receives its offsets
// and cursor (len n) is scratch.
func (c csr) transposeInto(start, cursor []int32) []int32 {
	n := len(cursor)
	items := make([]int32, len(c.items))
	for _, j := range c.items {
		start[j+1]++
	}
	for j := 0; j < n; j++ {
		start[j+1] += start[j]
	}
	copy(cursor, start[:n])
	for i := 0; i+1 < len(c.start); i++ {
		for _, j := range c.of(int32(i)) {
			items[cursor[j]] = int32(i)
			cursor[j]++
		}
	}
	return items
}
