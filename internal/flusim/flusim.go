// Package flusim reimplements the paper's FLUSIM submodule: a discrete-event
// simulator that emulates one FLUSEPA iteration by scheduling a task graph
// onto an idealised cluster. Like the original, it models no communication
// or runtime overheads — its purpose is to expose the idleness intrinsic to
// the task graph's shape (paper §III-A), which is exactly the property the
// MC_TL partitioning strategy targets.
//
// Inputs mirror the paper's: a cluster configuration (processes × workers per
// process, with an unbounded-core mode), the task graph generated from a mesh
// + domain decomposition, the domain→process mapping, and a scheduling
// strategy. Output is the makespan plus a full execution trace.
//
// The simulator core is allocation-lean: a reusable Simulator keeps every
// per-run buffer (event queue, ready queues, in-degrees, trace spans) and a
// SimulateInto entry point rewrites a caller-owned Result, so scoring many
// (partition, mapping, strategy) tuples allocates nothing in steady state.
// The event queue is a flat 4-ary heap ordered by (time, task) — the same
// total order the previous container/heap implementation used, so makespans
// and traces are bit-identical — without interface boxing.
package flusim

import (
	"fmt"
	"math/rand"

	"tempart/internal/taskgraph"
	"tempart/internal/trace"
)

// Cluster describes the emulated machine.
type Cluster struct {
	// NumProcs is the number of MPI-process analogues.
	NumProcs int
	// WorkersPerProc is the number of cores per process; 0 means unbounded
	// (the paper's idealised configuration of Figure 6).
	WorkersPerProc int
}

// Unbounded reports whether the cluster has unlimited cores per process.
func (c Cluster) Unbounded() bool { return c.WorkersPerProc <= 0 }

// Strategy selects how a process picks among its ready tasks.
type Strategy int

const (
	// Eager runs ready tasks FIFO — optimal when cores are unbounded, and
	// the paper's reference strategy.
	Eager Strategy = iota
	// LIFO runs the most recently released ready task first.
	LIFO
	// CriticalPathFirst prioritises tasks by bottom level (longest
	// downstream cost path), an HEFT-flavoured list scheduler.
	CriticalPathFirst
	// RandomOrder picks uniformly among ready tasks (seeded); a lower
	// bound on scheduling cleverness.
	RandomOrder
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Eager:
		return "eager"
	case LIFO:
		return "lifo"
	case CriticalPathFirst:
		return "cpf"
	case RandomOrder:
		return "random"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a label to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "eager":
		return Eager, nil
	case "lifo":
		return LIFO, nil
	case "cpf":
		return CriticalPathFirst, nil
	case "random":
		return RandomOrder, nil
	}
	return 0, fmt.Errorf("flusim: unknown strategy %q", s)
}

// Config parameterises a simulation.
type Config struct {
	Cluster Cluster
	// Strategy is the per-process ready-queue policy. Defaults to Eager.
	Strategy Strategy
	// Seed drives RandomOrder.
	Seed int64
	// RecordTrace enables span recording in the result; leave it off for
	// large parameter sweeps where only the makespan matters.
	RecordTrace bool
	// CommLatency delays every cross-process dependency edge by this many
	// time units (data transfer between MPI processes). Zero reproduces the
	// paper's FLUSIM, which models no communication; a positive value
	// enables the communication-aware ablation that quantifies the §VII
	// dual-phase trade-off.
	CommLatency int64
}

// Result is the outcome of a simulation.
type Result struct {
	Makespan int64
	Trace    *trace.Trace
	// CommVolume is the number of dependency edges between tasks on
	// different processes: the messages of one iteration, counted as the
	// run releases each task's successors.
	CommVolume int64
	// BusyPerProc is each process's total computation time.
	BusyPerProc []int64
	// CriticalPath and TotalWork are the two classical lower bounds:
	// Makespan ≥ CriticalPath and Makespan ≥ TotalWork/totalCores.
	CriticalPath int64
	TotalWork    int64
}

// BlockMap assigns numDomains domains to numProcs processes in contiguous
// blocks, the mapping FLUSEPA uses after partitioning (domain d → process
// d·P/D).
func BlockMap(numDomains, numProcs int) []int32 {
	out := make([]int32, numDomains)
	for d := 0; d < numDomains; d++ {
		out[d] = int32(d * numProcs / numDomains)
	}
	return out
}

// Simulate executes the task graph on the configured cluster and returns the
// makespan and trace. Tasks are pinned to the process owning their domain;
// within a process any free worker may run them. It is a thin wrapper over a
// throwaway Simulator; callers scoring many configurations should hold a
// Simulator and use SimulateInto.
func Simulate(tg *taskgraph.TaskGraph, procOfDomain []int32, cfg Config) (*Result, error) {
	return NewSimulator().Simulate(tg, procOfDomain, cfg)
}

// Simulator owns the scratch state of the discrete-event loop so repeated
// simulations reuse every buffer. A Simulator is not safe for concurrent
// use; use one per goroutine (each holds its own RandomOrder rng, so
// concurrent simulations across Simulators are race-free and reproducible).
type Simulator struct {
	procOf []int32
	indeg  []int32
	heapAt []int32
	procs  []procState
	events eventQueue
	touch  []int32
	src    rand.Source
	rng    *rand.Rand
}

// NewSimulator returns an empty Simulator; buffers grow on first use and are
// retained across runs.
func NewSimulator() *Simulator {
	src := rand.NewSource(1)
	return &Simulator{src: src, rng: rand.New(src)}
}

// Simulate runs the configuration and returns a fresh Result.
func (sim *Simulator) Simulate(tg *taskgraph.TaskGraph, procOfDomain []int32, cfg Config) (*Result, error) {
	res := &Result{}
	if err := sim.SimulateInto(res, tg, procOfDomain, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// SimulateInto runs the configuration and rewrites res in place, reusing its
// BusyPerProc and Trace storage; with warmed buffers the call performs no
// allocations. When cfg.RecordTrace is false res.Trace is set to nil, so a
// later traced run on the same Result starts a fresh trace.
func (sim *Simulator) SimulateInto(res *Result, tg *taskgraph.TaskGraph, procOfDomain []int32, cfg Config) error {
	if cfg.Cluster.NumProcs < 1 {
		return fmt.Errorf("flusim: NumProcs = %d", cfg.Cluster.NumProcs)
	}
	if cfg.Cluster.WorkersPerProc < 0 {
		return fmt.Errorf("flusim: WorkersPerProc = %d (0 means unbounded)", cfg.Cluster.WorkersPerProc)
	}
	if cfg.CommLatency < 0 {
		return fmt.Errorf("flusim: CommLatency = %d", cfg.CommLatency)
	}
	if len(procOfDomain) < tg.NumDomains {
		return fmt.Errorf("flusim: %d domain mappings for %d domains", len(procOfDomain), tg.NumDomains)
	}
	for d := 0; d < tg.NumDomains; d++ {
		if p := procOfDomain[d]; p < 0 || int(p) >= cfg.Cluster.NumProcs {
			return fmt.Errorf("flusim: domain %d mapped to process %d of %d", d, p, cfg.Cluster.NumProcs)
		}
	}

	n := tg.NumTasks()
	sim.procOf = growInt32(sim.procOf, n)
	sim.indeg = growInt32(sim.indeg, n)
	procOf, indeg := sim.procOf, sim.indeg
	for i := 0; i < n; i++ {
		procOf[i] = procOfDomain[tg.Tasks[i].Domain]
		indeg[i] = int32(len(tg.PredsOf(int32(i))))
	}

	// Priorities for CriticalPathFirst: the graph's bottom levels, computed
	// once per graph with its other bounds.
	var blevel []int64
	if cfg.Strategy == CriticalPathFirst {
		blevel = tg.BottomLevels()
		sim.heapAt = growInt32(sim.heapAt, n)
	}
	rng := sim.rng
	if cfg.Strategy == RandomOrder {
		// Reseeding the retained source reproduces exactly the stream of a
		// fresh rand.New(rand.NewSource(cfg.Seed)) without allocating.
		sim.src.Seed(cfg.Seed)
	}

	np := cfg.Cluster.NumProcs
	if cap(sim.procs) < np {
		sim.procs = make([]procState, np)
	}
	sim.procs = sim.procs[:np]
	procs := sim.procs
	for p := range procs {
		ps := &procs[p]
		ps.free = cfg.Cluster.WorkersPerProc
		if cfg.Cluster.Unbounded() {
			ps.free = -1 // sentinel: unlimited
		}
		ps.idleWorkers = ps.idleWorkers[:0]
		ps.nextWorker = 0
		ps.ready.reset(blevel, sim.heapAt)
	}

	events := &sim.events
	events.reset()

	res.BusyPerProc = growInt64(res.BusyPerProc, np)
	busy := res.BusyPerProc
	tr := res.Trace
	if tr == nil {
		if cfg.RecordTrace {
			tr = &trace.Trace{}
		}
	} else {
		tr.Spans = tr.Spans[:0]
	}
	if tr != nil {
		tr.NumProcs = np
		tr.WorkersPerProc = cfg.Cluster.WorkersPerProc
		tr.Makespan = 0
	}

	startTask := func(t int32, now int64) {
		p := procOf[t]
		ps := &procs[p]
		var worker int32
		if ps.free > 0 {
			ps.free--
			worker = ps.takeWorker()
		} else if ps.free == 0 {
			panic("flusim: started task with no free worker")
		} else {
			worker = ps.nextVirtualWorker()
		}
		end := now + tg.Tasks[t].Cost
		events.push(simEvent{time: end, task: t, worker: worker})
		if cfg.RecordTrace {
			tr.Spans = append(tr.Spans, trace.Span{
				Proc: p, Worker: worker, Task: t,
				Sub: tg.Tasks[t].Sub, Start: now, End: end,
			})
		}
		busy[p] += tg.Tasks[t].Cost
	}

	dispatch := func(p int32, now int64) {
		ps := &procs[p]
		for (ps.free != 0) && ps.ready.len() > 0 {
			t := ps.ready.pop(cfg.Strategy, rng)
			startTask(t, now)
		}
	}

	// Seed initial ready tasks.
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			procs[procOf[i]].ready.push(int32(i))
		}
	}
	for p := range procs {
		dispatch(int32(p), 0)
	}

	var now, cross int64
	completed := 0
	touched := sim.touch[:0]
	for events.len() > 0 {
		ev := events.pop()
		now = ev.time
		touched = touched[:0]

		if ev.kind == evArrival {
			// A communicated dependency edge arrived at ev.task's process.
			indeg[ev.task]--
			if indeg[ev.task] == 0 {
				p := procOf[ev.task]
				procs[p].ready.push(ev.task)
				touched = append(touched, p)
			}
		} else {
			completed++
			p := procOf[ev.task]
			ps := &procs[p]
			if ps.free >= 0 {
				ps.free++
				ps.returnWorker(ev.worker)
			}
			touched = append(touched, p)
			// Release successors: same-process edges are instantaneous,
			// cross-process edges arrive after the communication latency.
			// The count of cross-process edges is kept without a branch:
			// the test is data-dependent, and a branch on it slowed every
			// scheduler by ≈ 9 % on BenchmarkSimulate.
			for _, s := range tg.SuccsOf(ev.task) {
				to, c := procOf[s], int64(0)
				if to != p {
					c = 1
				}
				cross += c
				if cfg.CommLatency > 0 && to != p {
					events.push(simEvent{time: now + cfg.CommLatency, task: s, kind: evArrival})
					continue
				}
				indeg[s]--
				if indeg[s] == 0 {
					procs[to].ready.push(s)
					touched = append(touched, to)
				}
			}
		}
		for _, tp := range touched {
			dispatch(tp, now)
		}
	}
	sim.touch = touched[:0]
	if completed != n {
		return fmt.Errorf("flusim: deadlock — %d of %d tasks completed (cyclic dependencies?)", completed, n)
	}

	res.Makespan = now
	res.CommVolume = cross
	res.CriticalPath = tg.CriticalPath()
	res.TotalWork = tg.TotalWork()
	if cfg.RecordTrace {
		tr.Makespan = now
		res.Trace = tr
	} else {
		res.Trace = nil
	}
	return nil
}

// growInt32 returns a length-n slice reusing buf's storage when possible.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// growInt64 returns a zeroed length-n slice reusing buf's storage when
// possible.
func growInt64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// procState tracks one process's free workers and ready queue.
type procState struct {
	// free is the number of idle workers, or -1 for unbounded.
	free int
	// idleWorkers recycles worker ids for bounded clusters.
	idleWorkers []int32
	nextWorker  int32
	ready       readyQueue
}

func (ps *procState) takeWorker() int32 {
	if k := len(ps.idleWorkers); k > 0 {
		w := ps.idleWorkers[k-1]
		ps.idleWorkers = ps.idleWorkers[:k-1]
		return w
	}
	w := ps.nextWorker
	ps.nextWorker++
	return w
}

func (ps *procState) returnWorker(w int32) {
	ps.idleWorkers = append(ps.idleWorkers, w)
}

func (ps *procState) nextVirtualWorker() int32 {
	w := ps.nextWorker
	ps.nextWorker++
	return w
}

// readyQueue holds ready task ids; pop order depends on the strategy. FIFO
// pops advance a head index (amortised O(1)); the other strategies use
// swap-removal since they don't rely on insertion order.
//
// CriticalPathFirst takes the first task of the list with the highest
// bottom level. Instead of scanning the list for it, the queue keeps a
// binary heap over the listed tasks ordered by (bottom level descending,
// list position ascending): positions are unique, so the heap's top is
// exactly the scan's first maximum. The swap-removal moves the list's last
// task into the freed slot, a lower position, so its entry sifts up.
type readyQueue struct {
	tasks []int32
	head  int
	// For CriticalPathFirst only (bl non-nil): the heap, the bottom levels
	// it is keyed by, and each listed task's heap index.
	heap []cpfEntry
	bl   []int64
	at   []int32
}

// cpfEntry is a listed task in the CriticalPathFirst heap with its key: its
// bottom level and its position in the ready list.
type cpfEntry struct {
	bl   int64
	pos  int32
	task int32
}

// cpfBefore reports whether a pops before b.
func cpfBefore(a, b cpfEntry) bool {
	if a.bl != b.bl {
		return a.bl > b.bl
	}
	return a.pos < b.pos
}

func (q *readyQueue) len() int { return len(q.tasks) - q.head }

func (q *readyQueue) push(t int32) {
	if q.bl != nil {
		q.heap = append(q.heap, cpfEntry{bl: q.bl[t], pos: int32(len(q.tasks)), task: t})
		q.up(len(q.heap) - 1)
	}
	q.tasks = append(q.tasks, t)
}

// reset empties the queue; a non-nil bl (with at, one slot per task)
// selects the CriticalPathFirst heap.
func (q *readyQueue) reset(bl []int64, at []int32) {
	q.tasks, q.head, q.heap = q.tasks[:0], 0, q.heap[:0]
	q.bl, q.at = bl, at
}

func (q *readyQueue) pop(s Strategy, rng *rand.Rand) int32 {
	live := q.tasks[q.head:]
	switch s {
	case Eager:
		t := live[0]
		q.head++
		if q.head == len(q.tasks) {
			q.tasks, q.head = q.tasks[:0], 0
		}
		return t
	case LIFO:
		t := live[len(live)-1]
		q.tasks = q.tasks[:len(q.tasks)-1]
		return t
	case CriticalPathFirst:
		return q.popTop()
	case RandomOrder:
		idx := rng.Intn(len(live))
		t := live[idx]
		live[idx] = live[len(live)-1]
		q.tasks = q.tasks[:len(q.tasks)-1]
		return t
	}
	panic("flusim: unknown strategy")
}

// popTop removes and returns the heap's top task, swap-removing it from the
// list and sifting up the entry of the task that takes its slot.
func (q *readyQueue) popTop() int32 {
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	moved := q.tasks[len(q.tasks)-1]
	q.tasks[top.pos] = moved
	q.tasks = q.tasks[:len(q.tasks)-1]
	if moved != top.task {
		i := q.at[moved]
		q.heap[i].pos = top.pos
		q.up(int(i))
	}
	return top.task
}

// up sifts heap entry i towards the root.
func (q *readyQueue) up(i int) {
	h := q.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !cpfBefore(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		q.at[h[i].task] = int32(i)
		i = parent
	}
	h[i] = e
	q.at[e.task] = int32(i)
}

// down sifts heap entry i towards the leaves.
func (q *readyQueue) down(i int) {
	h := q.heap
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && cpfBefore(h[c+1], h[c]) {
			c++
		}
		if !cpfBefore(h[c], e) {
			break
		}
		h[i] = h[c]
		q.at[h[i].task] = int32(i)
		i = c
	}
	h[i] = e
	q.at[e.task] = int32(i)
}

// simEvent is either a task completion or the arrival of a communicated
// dependency edge.
type simEvent struct {
	time   int64
	task   int32
	worker int32
	kind   uint8
}

const (
	evCompletion uint8 = iota
	evArrival
)

// eventQueue is a flat 4-ary min-heap over (time, task). Equal-key events
// can only be duplicate arrivals for the same task at the same instant
// (a completion for a task never coexists with its arrivals, since the task
// cannot have started while arrivals are pending), so any heap with this
// comparator pops the one deterministic event sequence — the simulation is
// invariant to heap shape and to the old container/heap implementation.
type eventQueue struct {
	h []simEvent
}

func (q *eventQueue) len() int { return len(q.h) }
func (q *eventQueue) reset()   { q.h = q.h[:0] }
func eventLess(a, b simEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.task < b.task
}

func (q *eventQueue) push(e simEvent) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(q.h[i], q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *eventQueue) pop() simEvent {
	h := q.h
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	q.h = h[:last]
	h = q.h
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		min := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if eventLess(h[c], h[min]) {
				min = c
			}
		}
		if !eventLess(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}
