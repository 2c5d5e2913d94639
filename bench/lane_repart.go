package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"tempart/internal/eval"
	"tempart/internal/flusim"
	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/repart"
	"tempart/internal/temporal"
)

// repartCfg sizes the drifting-hotspot lane (the partbench -repart scenario):
// a refined segment slides along x, the temporal levels are reassigned each
// epoch, and the partition of the previous epoch is repaired incrementally.
type repartCfg struct {
	Mesh    string
	Scale   float64
	K       int
	Cluster flusim.Cluster
	Epochs  int
	Step    float64 // mean hotspot displacement per epoch, as a share of the x extent
	// Drifts is the number of timed drifts. Each has its own seed-derived
	// schedule and partition seeds: where the hotspot sits decides whether an
	// epoch diffuses or warm-starts a multilevel refinement, so one drift's
	// cost moves by ±15 % with its luck and only their sum is a measurement.
	Drifts int
}

// driftSchedule returns the hotspot's x position at each epoch as a share of
// the mesh's x extent. The seed jitters the starting point and every step by
// up to a tenth of a step, so two seeds re-level different cells while the
// drift stays the same experiment.
func driftSchedule(seed int64, drift, epochs int, step float64) []float64 {
	rng := rand.New(rand.NewSource(subSeed(seed, streamDrift, drift)))
	jitter := func() float64 { return (rng.Float64() - 0.5) * 0.2 * step }
	at := make([]float64, epochs)
	x := 0.45 + jitter()
	for e := range at {
		at[e] = x
		x += step + jitter()
	}
	return at
}

type box struct{ xmin, extent, yc, zc float64 }

func boundingBox(m *mesh.Mesh) box {
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for i := range m.CX {
		for d, v := range [3]float64{float64(m.CX[i]), float64(m.CY[i]), float64(m.CZ[i])} {
			lo[d], hi[d] = math.Min(lo[d], v), math.Max(hi[d], v)
		}
	}
	return box{xmin: lo[0], extent: hi[0] - lo[0], yc: (lo[1] + hi[1]) / 2, zc: (lo[2] + hi[2]) / 2}
}

// hotspotScore is the refinement score of the drift: distance to a segment of
// a tenth of the x extent that starts at share at of it.
func (b box) hotspotScore(at float64) func(x, y, z float64) float64 {
	x0 := b.xmin + at*b.extent
	x1 := x0 + 0.1*b.extent
	return func(x, y, z float64) float64 {
		dx := x - math.Max(x0, math.Min(x1, x))
		return math.Sqrt(dx*dx + (y-b.yc)*(y-b.yc) + (z-b.zc)*(z-b.zc))
	}
}

type repartLane struct {
	cfg     repartCfg
	m       *mesh.Mesh
	box     box
	counts  []int64
	base    []temporal.Level // the generator's levels, restored before every drift
	initial *partition.Result
	ev      *eval.Evaluator
	// Scratch reference for drift 0: what repartitioning from scratch at
	// every epoch achieves and costs.
	scratchMakespan []float64
	scratchWall     []float64
}

func (l *repartLane) name() string { return "repart" }

func (l *repartLane) relevel(at float64) {
	l.m.ReassignLevels(l.box.hotspotScore(at), l.counts)
}

func (l *repartLane) makespan(e *env, part []int32) (float64, error) {
	return eagerMakespan(e, l.ev, l.m, part, l.cfg.K, l.cfg.Cluster)
}

// partOptions seeds the partitioner for one epoch of one drift (epoch -1 is
// the shared starting partition).
func (l *repartLane) partOptions(e *env, drift, epoch, par int) partition.Options {
	return partition.Options{Seed: subSeed(e.seed, streamRepart, drift*(l.cfg.Epochs+1)+epoch+1), Parallelism: par}
}

// setup builds the mesh, the partition every drift starts from, and the
// scratch reference of drift 0: a fresh partition and its makespan at every
// epoch.
func (l *repartLane) setup(e *env) error {
	cfg := l.cfg
	_, sp := enter(e.ctx, "mesh")
	m, err := mesh.ByName(cfg.Mesh, cfg.Scale)
	sp.End()
	if err != nil {
		return err
	}
	l.m, l.box, l.counts = m, boundingBox(m), m.Census()
	l.base = append([]temporal.Level(nil), m.Level...)
	l.ev = eval.New(eval.Options{Parallelism: 2})

	c, sp := enter(e.ctx, "partition")
	l.initial, err = partition.PartitionMesh(c, m, cfg.K, partition.MCTL, l.partOptions(e, 0, -1, 2))
	sp.End()
	if err != nil {
		return err
	}
	l.scratchMakespan, l.scratchWall = nil, nil
	prev := l.initial
	for ep, at := range driftSchedule(e.seed, 0, cfg.Epochs, cfg.Step) {
		l.relevel(at)
		g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
		c, sp := enter(e.ctx, "repart")
		t0 := time.Now()
		res, err := repart.Repartition(c, g, prev, repart.Options{Mode: repart.Scratch,
			Part: l.partOptions(e, 0, ep, 2), MigBytes: repart.MeshMigrationBytes(m)})
		l.scratchWall = append(l.scratchWall, time.Since(t0).Seconds())
		sp.End()
		if err != nil {
			return err
		}
		ms, err := l.makespan(e, res.Part)
		if err != nil {
			return err
		}
		l.scratchMakespan = append(l.scratchMakespan, ms)
		prev = res.Result
	}
	copy(m.Level, l.base)
	return nil
}

func (l *repartLane) close() { *l = repartLane{cfg: l.cfg} }

func diffCount(a, b []int32) int {
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

func (l *repartLane) measure(e *env) {
	cfg, rep := l.cfg, e.rep
	cells := l.m.NumCells()
	var walls, plan, ratio []float64
	byMode := map[repart.Mode][]float64{}
	var moved, movedBytes int64

	// Drift -1 is the discarded warm-up: the first two epochs of drift 0,
	// enough to reach both the diffusive and the warm-started path.
	for d := -1; d < cfg.Drifts; d++ {
		schedule := driftSchedule(e.seed, max(d, 0), cfg.Epochs, cfg.Step)
		if d < 0 && len(schedule) > 2 {
			schedule = schedule[:2]
		}
		copy(l.m.Level, l.base)
		cur := l.initial
		for ep, at := range schedule {
			e.pause(float64(len(walls)) / float64(cfg.Drifts*cfg.Epochs))
			l.relevel(at)
			runtime.GC()
			c, sp := enter(e.ctx, "repart")
			t0 := time.Now()
			g := l.m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
			bytes := repart.MeshMigrationBytes(l.m)
			res, err := repart.Repartition(c, g, cur, repart.Options{Mode: repart.Auto,
				Part: l.partOptions(e, max(d, 0), ep, 1), MigBytes: bytes})
			wall := time.Since(t0).Seconds()
			sp.End()
			if !rep.gateErr(err, "repart.Repartition") {
				return
			}
			rep.gateErr(res.Validate(g), "repartition valid")
			rep.gate(res.Stats.MovedCells == diffCount(cur.Part, res.Part),
				"drift %d epoch %d: Stats.MovedCells %d differs from the part-vector diff", d, ep, res.Stats.MovedCells)
			_, sp = enter(e.ctx, "repart")
			t0 = time.Now()
			pl, err := repart.Plan(cur.Part, res.Part, cfg.K, bytes)
			planWall := time.Since(t0).Seconds()
			sp.End()
			rep.gate(err == nil && pl.Stats.MovedBytes == res.Stats.MovedBytes,
				"drift %d epoch %d: plan bytes differ from Stats.MovedBytes %d (err %v)", d, ep, res.Stats.MovedBytes, err)
			if d >= 0 {
				walls, plan = append(walls, wall), append(plan, planWall)
				byMode[res.Mode] = append(byMode[res.Mode], wall)
				moved, movedBytes = moved+int64(res.Stats.MovedCells), movedBytes+res.Stats.MovedBytes
			}
			if d == 0 {
				ms, err := l.makespan(e, res.Part)
				if rep.gateErr(err, "evaluate") {
					ratio = append(ratio, ms/l.scratchMakespan[ep])
				}
			}
			cur = res.Result
		}
	}
	copy(l.m.Level, l.base)

	work := float64(cells * len(walls)) // cells × epochs × drifts
	rep.set("repart_cells_per_s", work/sum(walls), len(walls))
	rep.set("migrated_share", float64(moved)/work, 0)
	rep.set("repart_makespan_ratio", mean(ratio), 0)

	rep.set("repart.diffuse_ms", 1e3*medianOrZero(byMode[repart.Diffuse]), len(byMode[repart.Diffuse]))
	rep.set("repart.refine_ms", 1e3*medianOrZero(byMode[repart.Refine]), len(byMode[repart.Refine]))
	rep.set("repart.scratch_ms", 1e3*median(l.scratchWall), len(l.scratchWall))
	rep.set("repart.mode_keep", float64(len(byMode[repart.Keep])), 0)
	rep.set("repart.mode_diffuse", float64(len(byMode[repart.Diffuse])), 0)
	rep.set("repart.mode_refine", float64(len(byMode[repart.Refine])), 0)
	rep.set("repart.mode_scratch", float64(len(byMode[repart.Scratch])), 0)
	rep.set("repart.moved_bytes", float64(movedBytes), 0)
	rep.set("repart.plan_ms", 1e3*median(plan), len(plan))
}
