package solver

import (
	"context"
	"math"
	"testing"

	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/repart"
)

// driftScore shifts the cylinder's hot segment along x, mirroring the drift
// experiment.
func driftScore(shift float64) func(x, y, z float64) float64 {
	return func(x, y, z float64) float64 {
		ax, bx := 0.9+shift, 1.1+shift
		vx := bx - ax
		t := (x - ax) / vx
		t = math.Max(0, math.Min(1, t))
		dx, dy, dz := x-(ax+t*vx), y-0.5, z-0.5
		return math.Sqrt(dx*dx + dy*dy + dz*dz)
	}
}

func TestRunWithRepartPolicy(t *testing.T) {
	m := mesh.Cylinder(0.001)
	s, err := New(context.Background(), m, Config{
		NumDomains: 8,
		Strategy:   partition.MCTL,
		Workers:    2,
		Repart: &RepartPolicy{
			Every: 2,
			Levels: func(it int) (func(x, y, z float64) float64, []int64) {
				return driftScore(0.1 * float64(it+1)), mesh.CylinderCounts
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mass0 := s.k.Mass()
	rep, err := s.RunContext(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Repartitions); got != 2 { // after iterations 1 and 3
		t.Fatalf("recorded %d repartitions, want 2: %+v", got, rep.Repartitions)
	}
	for _, ev := range rep.Repartitions {
		if ev.Mode == "" || ev.Mode == "auto" {
			t.Errorf("event %+v has unresolved mode", ev)
		}
		if ev.ImbalanceAfter > ev.ImbalanceBefore {
			t.Errorf("repartition worsened imbalance: %+v", ev)
		}
	}
	// The new assignment must be live: partition, mesh-order part and task
	// graph agree on the cell count, and the state still runs.
	if len(s.part) != s.Mesh.NumCells() {
		t.Fatalf("part has %d cells, mesh %d", len(s.part), s.Mesh.NumCells())
	}
	if err := s.Partition.Validate(s.Mesh.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})); err != nil {
		t.Error(err)
	}
	// Durations were reset at the last repartition (iteration 3) and then
	// re-collected for the final task graph.
	if len(rep.Durations) != len(s.TG.Tasks) {
		t.Errorf("%d durations for %d tasks", len(rep.Durations), len(s.TG.Tasks))
	}
	// Mass is conserved across level reassignment and repartitioning: the
	// mesh cells never move, only their levels and owners change.
	if mass1 := s.k.Mass(); mass0 != 0 {
		if drift := math.Abs(mass1-mass0) / math.Abs(mass0); drift > 1e-9 {
			t.Errorf("mass drifted by %.2e across repartitions", drift)
		}
	}
}

func TestRepartPolicySkipsOnNilScore(t *testing.T) {
	m := mesh.Cylinder(0.001)
	s, err := New(context.Background(), m, Config{
		NumDomains: 4,
		Strategy:   partition.MCTL,
		Repart: &RepartPolicy{
			Every:  1,
			Levels: func(int) (func(x, y, z float64) float64, []int64) { return nil, nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repartitions) != 0 {
		t.Errorf("nil score still repartitioned: %+v", rep.Repartitions)
	}
}

func TestRunContextCancelled(t *testing.T) {
	m := mesh.Cylinder(0.001)
	s, err := New(context.Background(), m, Config{NumDomains: 4, Strategy: partition.SCOC})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx, 2); err == nil {
		t.Error("cancelled context not reported")
	}
}

func TestRepartPolicyScratchMode(t *testing.T) {
	m := mesh.Cylinder(0.001)
	s, err := New(context.Background(), m, Config{
		NumDomains: 8,
		Strategy:   partition.MCTL,
		Repart: &RepartPolicy{
			Every: 1,
			Opt:   repart.Options{Mode: repart.Scratch},
			Levels: func(it int) (func(x, y, z float64) float64, []int64) {
				return driftScore(0.2), mesh.CylinderCounts
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repartitions) != 1 || rep.Repartitions[0].Mode != "scratch" {
		t.Errorf("events = %+v, want one scratch", rep.Repartitions)
	}
}

// TestRepartPolicyEulerKeepsCellFaces: a repartition with the migration
// weights already given leaves the mesh's cell→face index in place, so the
// two Euler workers that read it after the epoch share the index built
// before the run instead of racing to rebuild it (go test -race).
func TestRepartPolicyEulerKeepsCellFaces(t *testing.T) {
	m := mesh.Cylinder(0.001)
	s, err := New(context.Background(), m, Config{
		NumDomains: 8,
		Strategy:   partition.MCTL,
		Workers:    2,
		Model:      Euler,
		Repart: &RepartPolicy{
			Every: 1,
			Opt:   repart.Options{MigBytes: repart.MeshMigrationBytes(m)},
			Levels: func(it int) (func(x, y, z float64) float64, []int64) {
				return driftScore(0.1 * float64(it+1)), mesh.CylinderCounts
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunContext(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repartitions) != 2 { // after iterations 0 and 1; the run ends after 2
		t.Fatalf("recorded %d repartitions, want 2", len(rep.Repartitions))
	}
	if rep.MassDriftRel > 1e-9 {
		t.Errorf("Euler mass drifted by %.2e across repartitions", rep.MassDriftRel)
	}
}
