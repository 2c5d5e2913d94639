package repart

import (
	"context"
	"testing"

	"tempart/internal/mesh"
	"tempart/internal/obs"
	"tempart/internal/partition"
)

// TestRepartitionUnchangedByTracing is partition's
// TestPartitionUnchangedByTracing for the warm paths: a recorder on the
// context changes no assignment, at any parallelism, and the refinement
// spans account for their work — the greedy counters on the warm paths'
// refiner spans, the pair counters on the scratch path's k-way polish.
func TestRepartitionUnchangedByTracing(t *testing.T) {
	m, old := driftedCylinder(t, 0.002, 8, 0.3)
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	bytes := MeshMigrationBytes(m)
	for _, mode := range []Mode{Diffuse, Refine, Scratch} {
		opt := Options{Mode: mode, MigBytes: bytes, Part: partition.Options{Seed: 3, Parallelism: 1}}
		base, err := Repartition(context.Background(), g, old, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			opt.Part.Parallelism = par
			rec := obs.NewRecorder()
			traced, err := Repartition(obs.WithRecorder(context.Background(), rec), g, old, opt)
			if err != nil {
				t.Fatal(err)
			}
			for v := range base.Part {
				if base.Part[v] != traced.Part[v] {
					t.Fatalf("%v parallelism %d: traced repartition diverges at cell %d", mode, par, v)
				}
			}
			var greedy, pairs, moves int64
			for _, sp := range rec.Snapshot() {
				if sp.Name != "partition/refine" {
					continue
				}
				val := func(key string) int64 {
					v, ok := attr(sp, key)
					if !ok {
						t.Errorf("%v parallelism %d: k-way refine span lacks %q", mode, par, key)
					}
					return v
				}
				if _, ok := attr(sp, "candidates"); ok {
					greedy++
					passes, visited, cands, mv, stale := val("passes"), val("visited"), val("candidates"), val("moves"), val("stale")
					if passes < 1 || mv+stale > cands || cands > visited {
						t.Errorf("%v parallelism %d: implausible greedy counters passes=%d visited=%d candidates=%d moves=%d stale=%d",
							mode, par, passes, visited, cands, mv, stale)
					}
					moves += mv
					continue
				}
				if _, ok := attr(sp, "pairs_run"); !ok {
					continue // a 2-way refinement inside the scratch partition
				}
				pairs++
				passes, run, skipped := val("passes"), val("pairs_run"), val("pairs_skipped")
				idle, mv := val("pairs_idle"), val("moves")
				if passes < 1 || idle > run || (mv > 0 && idle == run) || run+skipped < passes {
					t.Errorf("%v parallelism %d: implausible pair counters passes=%d run=%d skipped=%d idle=%d moves=%d",
						mode, par, passes, run, skipped, idle, mv)
				}
			}
			if mode == Scratch {
				if pairs == 0 || greedy != 0 {
					t.Errorf("scratch parallelism %d: %d pairwise and %d greedy refine spans, want the polish only", par, pairs, greedy)
				}
			} else if greedy == 0 || moves == 0 || pairs != 0 {
				t.Errorf("%v parallelism %d: %d greedy spans moving %d vertices, %d pairwise spans", mode, par, greedy, moves, pairs)
			}
		}
	}
}

// TestRefineWarmSpansTile: the per-level coarsen and refine spans (and the
// diffusive finish, when it runs) cover the warm-start strategy — at one
// worker its direct children account for at least 95 % of repart/refine_warm,
// so a traced run says which level the time went to, and the span's
// residual_diffuse attribute says whether the diffusive finish ran. The
// finish runs on this fixture, and table_builds shows it laid no table of
// its own: one per level, depth in all.
func TestRefineWarmSpansTile(t *testing.T) {
	m, old := driftedCylinder(t, goldenScale, goldenK, 0.05)
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	rec := obs.NewRecorder()
	_, err := Repartition(obs.WithRecorder(context.Background(), rec), g, old, Options{
		Mode: Refine, MigBytes: MeshMigrationBytes(m), Part: partition.Options{Seed: 1, Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	spans := rec.Snapshot()
	warm := -1
	for i := range spans {
		if spans[i].Name == "repart/refine_warm" {
			warm = i
		}
	}
	if warm < 0 {
		t.Fatal("no repart/refine_warm span")
	}
	var covered int64
	byName := map[string]int{}
	for i := range spans {
		if int(spans[i].Parent) == warm {
			covered += int64(spans[i].Duration())
			byName[spans[i].Name]++
		}
	}
	total := int64(spans[warm].Duration())
	depth, _ := attr(spans[warm], "depth")
	if byName["repart/refine"] != int(depth) || byName["repart/coarsen"] < int(depth)-1 || depth < 2 {
		t.Errorf("depth %d hierarchy recorded children %v", depth, byName)
	}
	// The diffusive finish is recorded whether or not it fired, and fires
	// exactly when a repart/diffuse child says it ran.
	fired, ok := attr(spans[warm], "residual_diffuse")
	if !ok || fired != int64(byName["repart/diffuse"]) {
		t.Errorf("residual_diffuse = %d (recorded %v) with %d repart/diffuse children", fired, ok, byName["repart/diffuse"])
	}
	// One table per level: the diffusive finish and its polish continue on
	// the finest level's.
	if builds, ok := attr(spans[warm], "table_builds"); !ok || builds != depth {
		t.Errorf("table_builds = %d (recorded %v) over %d levels, residual_diffuse %d", builds, ok, depth, fired)
	}
	if fired != 1 {
		t.Errorf("the diffusive finish did not run: a second table build would go unseen")
	}
	if share := float64(covered) / float64(total); share < 0.95 {
		t.Errorf("direct children cover %.1f%% of repart/refine_warm (%v), want >= 95%%", 100*share, byName)
	}
}

func attr(sp obs.SpanRecord, key string) (int64, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key && a.Kind == obs.AttrInt {
			return a.Int, true
		}
	}
	return 0, false
}
