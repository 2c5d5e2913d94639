package main

import (
	"math"
	"runtime"
	"time"

	"tempart/internal/eval"
	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/partition"
	rt "tempart/internal/runtime"
	"tempart/internal/solver"
	"tempart/internal/taskgraph"
)

// downstreamCfg sizes the lane for everything that consumes a partition:
// task-graph build + FLUSIM through the evaluation facade, and the
// task-parallel solver. The partitions themselves are set-up.
type downstreamCfg struct {
	Mesh    string
	Scale   float64
	Ks      []int // domain counts; the first feeds the solver, the last is the fine-grained one
	Cluster flusim.Cluster
	// EvalRounds is the number of timed evaluation rounds. A round scores
	// every partition cold (eager, fresh evaluator) and then warm under the
	// three other schedulers.
	EvalRounds int
	// SolverIters is the number of timed Euler iterations.
	SolverIters int
}

type downstreamLane struct {
	cfg   downstreamCfg
	m     *mesh.Mesh
	parts []*partition.Result // MC_TL then SC_OC for each k
}

func (l *downstreamLane) name() string { return "downstream" }

func (l *downstreamLane) setup(e *env) error {
	_, sp := enter(e.ctx, "mesh")
	m, err := mesh.ByName(l.cfg.Mesh, l.cfg.Scale)
	sp.End()
	if err != nil {
		return err
	}
	l.m, l.parts = m, l.parts[:0]
	for _, k := range l.cfg.Ks {
		for _, strat := range []partition.Strategy{partition.MCTL, partition.SCOC} {
			c, sp := enter(e.ctx, "partition")
			res, err := partition.PartitionMesh(c, m, k, strat, partition.Options{Seed: subSeed(e.seed, streamDownstream, k), Parallelism: 2})
			sp.End()
			if err != nil {
				return err
			}
			l.parts = append(l.parts, res)
		}
	}
	return nil
}

func (l *downstreamLane) close() { *l = downstreamLane{cfg: l.cfg} }

var schedulers = []flusim.Strategy{flusim.Eager, flusim.LIFO, flusim.CriticalPathFirst, flusim.RandomOrder}

func (l *downstreamLane) spec(p *partition.Result, s flusim.Strategy, seed int64) eval.Spec {
	return eval.Spec{Mesh: l.m, MeshID: l.cfg.Mesh, Part: p.Part, NumDomains: p.NumParts,
		ProcOf: flusim.BlockMap(p.NumParts, l.cfg.Cluster.NumProcs),
		Sim:    flusim.Config{Cluster: l.cfg.Cluster, Strategy: s, Seed: seed}}
}

// cellUpdates is the number of cell activations in one iteration of tg: the
// work unit of solver_cell_updates_per_s.
func cellUpdates(tg *taskgraph.TaskGraph) float64 {
	var n int64
	for i := range tg.Tasks {
		if tg.Tasks[i].Kind == taskgraph.CellKind {
			n += int64(tg.Tasks[i].NumObjects)
		}
	}
	return float64(n)
}

// tenths is how many turns a lane takes to do one phase's work, so that the
// phase is spread over the whole run.
const tenths = 10

// share is the size of turn i when n items are dealt over the turns.
func share(n, i int) int { return n*(i+1)/tenths - n*i/tenths }

func (l *downstreamLane) measure(e *env) {
	var ev evalRounds
	if !ev.round(e, l, false) { // the discarded warm-up round
		return
	}
	euler := l.assemble(e, l.parts[0], solver.Euler, 2)
	if euler == nil {
		return
	}
	for i := 0; i < tenths; i++ {
		e.pause(float64(2*i) / (2 * tenths))
		for r := 0; r < share(l.cfg.EvalRounds, i); r++ {
			if !ev.round(e, l, true) {
				return
			}
		}
		e.pause(float64(2*i+1) / (2 * tenths))
		if !euler.run(e, share(l.cfg.SolverIters, i)) {
			return
		}
	}
	rep := e.rep
	rep.set("evals_per_s", float64(len(l.parts)*len(schedulers))/median(ev.walls), len(ev.walls))
	rep.set("eval.cold_ms", 1e3*median(ev.cold), len(ev.cold))
	rep.set("eval.warm_ms", 1e3*median(ev.warm), len(ev.warm))
	rep.set("eval.graph_cache_hit_share", float64(len(ev.warm))/float64(len(ev.cold)+len(ev.warm)), len(ev.cold)+len(ev.warm))

	rep.gate(euler.drift <= 1e-9, "Euler mass drift %g exceeds 1e-9", euler.drift)
	rep.gateErr(euler.s.EulerState.CheckFinite(), "Euler state finite")
	rate := euler.rate()
	rep.set("solver_cell_updates_per_s", rate, len(euler.walls))
	rep.set("solver.assemble_s", euler.assembleSeconds, 1)
	rep.set("solver.mass_drift_rel", euler.drift, 0)

	if !e.traced() {
		return
	}
	// The plain single-thread baseline of the same problem, and the
	// dispatch-bound variant: light scalar kernels over the finest partition.
	if base := l.assemble(e, l.parts[0], solver.Euler, 1); base != nil && base.run(e, l.cfg.SolverIters) {
		rep.set("fv.euler_w1_cell_updates_per_s", base.rate(), len(base.walls))
		rep.set("solver.par2_speedup", rate/base.rate(), len(base.walls))
	}
	if fine := l.assemble(e, l.parts[len(l.parts)-2], solver.Scalar, 2); fine != nil && fine.run(e, l.cfg.SolverIters) {
		rep.set("solver.scalar_k192_cell_updates_per_s", fine.rate(), len(fine.walls))
	}
	l.kernels(e)
}

// evalRounds collects phase A: rounds of cold and warm evaluations, each
// through a fresh evaluator.
type evalRounds struct {
	first             []int64 // the first timed round's makespans: every later round must repeat them
	walls, cold, warm []float64
}

// round scores every partition cold (eager) and then warm under the other
// schedulers. An untimed round is the warm-up, which also checks that a
// cached graph changes nothing.
func (ev *evalRounds) round(e *env, l *downstreamLane, timed bool) bool {
	rep := e.rep
	simSeed := subSeed(e.seed, streamDownstream, 0)
	var got []int64
	runtime.GC()
	t0 := time.Now()
	evaluator := eval.New(eval.Options{Parallelism: 1})
	for _, p := range l.parts {
		for _, s := range schedulers {
			_, sp := enter(e.ctx, "eval")
			t1 := time.Now()
			out, err := evaluator.Evaluate(l.spec(p, s, simSeed))
			d := time.Since(t1).Seconds()
			sp.End()
			if !rep.gateErr(err, "evaluate") {
				return false
			}
			got = append(got, out.Makespan)
			switch {
			case !timed:
			case out.GraphCached:
				ev.warm = append(ev.warm, d)
			default:
				ev.cold = append(ev.cold, d)
			}
		}
	}
	wall := time.Since(t0).Seconds()
	switch {
	case !timed:
		// Every eager spec, evaluated again now that its graph is cached,
		// must equal its cold outcome.
		for i, p := range l.parts {
			out, err := evaluator.Evaluate(l.spec(p, flusim.Eager, simSeed))
			ok := err == nil && out.GraphCached && out.Makespan == got[i*len(schedulers)]
			rep.gate(ok, "partition %d: warm eager outcome differs from cold (err %v)", i, err)
		}
		return true
	case ev.first == nil:
		ev.first = got
	default:
		same := len(got) == len(ev.first)
		for i := 0; same && i < len(got); i++ {
			same = got[i] == ev.first[i]
		}
		rep.gate(same, "evaluation round %d does not repeat the first round's makespans", len(ev.walls))
	}
	ev.walls = append(ev.walls, wall)
	return true
}

// solverRun is one assembled solver and the iterations timed on it.
type solverRun struct {
	s               *solver.Solver
	assembleSeconds float64
	walls           []float64
	drift           float64 // the largest relative mass drift of any run
}

// assemble builds a solver over p and runs a few discarded iterations.
func (l *downstreamLane) assemble(e *env, p *partition.Result, model solver.Model, workers int) *solverRun {
	_, sp := enter(e.ctx, "solver")
	defer sp.End()
	t0 := time.Now()
	s, err := solver.NewFromPartition(l.m, p, solver.Config{Workers: workers, Model: model})
	r := &solverRun{s: s, assembleSeconds: time.Since(t0).Seconds()}
	if !e.rep.gateErr(err, "solver.NewFromPartition") {
		return nil
	}
	if _, err := s.Run(1 + l.cfg.SolverIters/20); !e.rep.gateErr(err, "solver warm-up") {
		return nil
	}
	return r
}

// run times iters more iterations.
func (r *solverRun) run(e *env, iters int) bool {
	if iters == 0 {
		return true
	}
	runtime.GC()
	_, sp := enter(e.ctx, "solver")
	rep, err := r.s.Run(iters)
	sp.End()
	if !e.rep.gateErr(err, "solver.Run") {
		return false
	}
	r.walls = append(r.walls, seconds(rep.WallPerIteration)...)
	r.drift = math.Max(r.drift, rep.MassDriftRel)
	return true
}

// rate is cell activations per second at the median iteration wall.
func (r *solverRun) rate() float64 { return cellUpdates(r.s.TG) / median(r.walls) }

// kernels times the layers under the evaluation facade and the solver on the
// finest MC_TL partition. Traced runs only.
func (l *downstreamLane) kernels(e *env) {
	rep := e.rep
	fine := l.parts[len(l.parts)-2]
	opt := taskgraph.Options{Parallelism: 1}
	var tg *taskgraph.TaskGraph
	build := timeCalls(kernelCalls, func() {
		_, sp := enter(e.ctx, "taskgraph")
		g, err := taskgraph.BuildIterations(l.m, fine.Part, fine.NumParts, 1, opt)
		sp.End()
		if rep.gateErr(err, "taskgraph.BuildIterations") {
			tg = g
		}
	})
	if tg == nil {
		return
	}
	tasks := float64(tg.NumTasks())
	rep.set("taskgraph.build_tasks_per_s", tasks/median(build), len(build))
	rep.set("taskgraph.tasks", tasks, 0)
	rep.set("taskgraph.deps", float64(tg.NumDeps()), 0)
	allocs, _ := heapCost(func() {
		_, err := taskgraph.BuildIterations(l.m, fine.Part, fine.NumParts, 1, opt)
		rep.gateErr(err, "taskgraph.BuildIterations")
	})
	rep.set("taskgraph.build_allocs_per_op", allocs, 1)

	sim := flusim.NewSimulator()
	var res flusim.Result
	procOf := flusim.BlockMap(fine.NumParts, l.cfg.Cluster.NumProcs)
	cfg := flusim.Config{Cluster: l.cfg.Cluster}
	simulate := func() {
		_, sp := enter(e.ctx, "flusim")
		err := sim.SimulateInto(&res, tg, procOf, cfg)
		sp.End()
		rep.gateErr(err, "SimulateInto")
	}
	simulate() // grow the simulator's buffers once
	walls := timeCalls(3*kernelCalls, simulate)
	rep.set("flusim.sim_tasks_per_s", tasks/median(walls), len(walls))
	allocs, _ = heapCost(simulate)
	rep.set("flusim.sim_allocs_per_op", allocs, 1)

	// Per-task dispatch cost: the graph's own dependencies, a kernel that does nothing.
	objTG, err := taskgraph.Build(l.m, fine.Part, fine.NumParts, taskgraph.Options{Parallelism: 1})
	if !rep.gateErr(err, "taskgraph.Build") {
		return
	}
	exec := timeCalls(3*kernelCalls, func() {
		_, sp := enter(e.ctx, "runtime")
		_, err := rt.Execute(objTG, func(*taskgraph.Task) {}, rt.Config{Workers: 2})
		sp.End()
		rep.gateErr(err, "runtime.Execute")
	})
	rep.set("runtime.task_dispatch_us", 1e6*median(exec)/float64(objTG.NumTasks()), len(exec))
	rep.set("runtime.exec_tasks_per_s", float64(objTG.NumTasks())/median(exec), len(exec))
}
