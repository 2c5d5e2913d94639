package solver

import (
	"context"
	"fmt"

	"tempart/internal/mesh"
	"tempart/internal/obs"
	"tempart/internal/partition"
	"tempart/internal/repart"
	"tempart/internal/taskgraph"
)

// RepartPolicy makes a running solver track temporal-level drift: every
// Every iterations the Levels callback re-scores the mesh, the solver
// reassigns temporal levels in place (mesh.ReassignLevels), and the domain
// decomposition is repaired incrementally with internal/repart — the
// in-situ analogue of the paper's offline repartitioning step.
type RepartPolicy struct {
	// Every fires the reassessment after iterations Every, 2·Every, …
	// Values < 1 default to 1.
	Every int
	// Levels returns the refinement score and per-level census targets for
	// the given (0-based, just-finished) iteration. Returning a nil score
	// skips the reassessment at that firing. The score follows
	// mesh.Spec.Score: lower values get finer temporal levels.
	Levels func(iteration int) (score func(x, y, z float64) float64, counts []int64)
	// Opt forwards to repart.Repartition. A nil Opt.MigBytes is filled with
	// repart.MeshMigrationBytes of the solver's mesh.
	Opt repart.Options
}

// RepartEvent records one in-run repartition in the Report.
type RepartEvent struct {
	// Iteration is the 0-based iteration after which the repartition ran.
	Iteration int `json:"iteration"`
	// Mode is the repart strategy actually used ("keep", "diffuse", ...).
	Mode string `json:"mode"`
	// ImbalanceBefore/After are the worst per-constraint imbalances of the
	// old assignment on the re-levelled mesh and of the new assignment.
	ImbalanceBefore float64 `json:"imbalance_before"`
	ImbalanceAfter  float64 `json:"imbalance_after"`
	// MovedCells and MovedBytes quantify the migration.
	MovedCells int   `json:"moved_cells"`
	MovedBytes int64 `json:"moved_bytes"`
	// EdgeCut is the new assignment's edge cut.
	EdgeCut int64 `json:"edge_cut"`
}

// repartConstraints maps the solver's partitioning strategy onto the dual-
// graph constraint kind used for incremental repartitioning. The geometric
// strategies have no graph constraints of their own; they repartition under
// operating cost.
func repartConstraints(s partition.Strategy) mesh.ConstraintKind {
	switch s {
	case partition.MCTL:
		return mesh.PerLevel
	case partition.UnitCells:
		return mesh.Unit
	default:
		return mesh.SingleCost
	}
}

// maybeRepartition runs the Repart policy after iteration it: reassess
// temporal levels, refresh the FV caches, repartition incrementally from the
// current assignment, and rebuild the task graph over the same (unmoved)
// mesh so the FV state arrays stay valid. Measured durations collected so
// far are dropped — they describe tasks of the old graph.
func (s *Solver) maybeRepartition(ctx context.Context, it int, rep *Report) error {
	pol := s.cfg.Repart
	every := pol.Every
	if every < 1 {
		every = 1
	}
	if (it+1)%every != 0 || pol.Levels == nil {
		return nil
	}
	score, counts := pol.Levels(it)
	if score == nil {
		return nil
	}

	// One span per fired repartition epoch; the repart.Repartition call nests
	// its own spans (mode, migration) under it through the context.
	span := obs.StartSpan(ctx, "solver/repart_epoch")
	defer span.End()
	if span.Active() {
		span.SetInt("iteration", int64(it))
		ctx = obs.ContextWithSpan(ctx, span)
	}

	// Levels change in place; every level-derived cache must be rebuilt.
	// This is only safe between iterations: the flux accumulators are
	// drained at iteration boundaries, so no in-flight face contribution is
	// scaled by a stale time step.
	s.Mesh.ReassignLevels(score, counts)
	s.k.RefreshLevels()

	g := s.Mesh.DualGraph(mesh.DualGraphOptions{Constraints: repartConstraints(s.cfg.Strategy)})
	old := partition.NewResult(g, s.part, s.cfg.NumDomains)
	opt := pol.Opt
	if opt.Part.Seed == 0 {
		opt.Part.Seed = s.cfg.PartOpts.Seed + int64(it) + 1
	}
	if opt.MigBytes == nil {
		opt.MigBytes = repart.MeshMigrationBytes(s.Mesh)
	}
	res, err := repart.Repartition(ctx, g, old, opt)
	if err != nil {
		return fmt.Errorf("solver: repartition after iteration %d: %w", it, err)
	}

	// Rebuild the task graph over the same mesh ordering (no second
	// renumbering — the FV state indexes the current arrays).
	tg, err := taskgraph.Build(s.Mesh, res.Part, s.cfg.NumDomains,
		taskgraph.Options{RecordObjects: true})
	if err != nil {
		return fmt.Errorf("solver: rebuilding task graph after iteration %d: %w", it, err)
	}
	s.part = res.Part
	s.Partition = res.Result
	s.TG = tg
	// The old graph's per-task durations cannot be merged with the new
	// graph's (task identity changed); restart the minimum tracking.
	rep.Durations = nil

	rep.Repartitions = append(rep.Repartitions, RepartEvent{
		Iteration:       it,
		Mode:            res.Mode.String(),
		ImbalanceBefore: old.MaxImbalance(),
		ImbalanceAfter:  res.MaxImbalance(),
		MovedCells:      res.Stats.MovedCells,
		MovedBytes:      res.Stats.MovedBytes,
		EdgeCut:         res.EdgeCut,
	})
	if span.Active() {
		span.SetStr("mode", res.Mode.String())
		span.SetInt("moved_cells", int64(res.Stats.MovedCells))
		span.SetInt("moved_bytes", res.Stats.MovedBytes)
		span.SetFloat("imbalance_after", res.MaxImbalance())
	}
	obs.FromContext(ctx).Count("solver.repart_events", 1)
	return nil
}
