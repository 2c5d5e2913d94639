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
// refiner spans, the climb counters on the scratch path's k-way polish.
// Only the scratch path climbs.
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
			var greedy, climbs, moves int64
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
				if _, ok := attr(sp, "climb_passes"); !ok {
					continue // a 2-way refinement inside the scratch partition
				}
				climbs++
				passes, tried, kept, rolled := val("climb_passes"), val("climb_tried"), val("climb_kept"), val("climb_rolled_back")
				if passes < 1 || kept < 0 || rolled < 0 || kept+rolled != tried {
					t.Errorf("%v parallelism %d: implausible climb counters passes=%d tried=%d kept=%d rolled_back=%d",
						mode, par, passes, tried, kept, rolled)
				}
			}
			if mode == Scratch {
				if climbs == 0 {
					t.Errorf("scratch parallelism %d: no climbing refine span, want the polish's", par)
				}
			} else if greedy == 0 || moves == 0 || climbs != 0 {
				t.Errorf("%v parallelism %d: %d greedy spans moving %d vertices, %d climbing spans", mode, par, greedy, moves, climbs)
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
// its own: one per level, depth in all. Every level's refiner span records
// its passes within the level's cap — finestPasses on level 0, the
// refiner's default above it, polishPasses for the finish's polish — and
// why the passes stopped, pass_cap only at the cap. Level 0 reaches its cap
// from shift 0.2 on and the polish at shift 0.4 (the old partitions, built
// by partition.Partition, are balanced enough that the lighter drifts leave
// the polish below it), so a cap that went missing would show as a span
// above it.
func TestRefineWarmSpansTile(t *testing.T) {
	capped := map[string]int{} // refiner spans that stopped at their cap, by stage
	for _, shift := range []float64{0.05, 0.2, 0.4} {
		m, old := driftedCylinder(t, goldenScale, goldenK, shift)
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
		// The refiner span under each repart/refine and repart/diffuse child.
		refined := 0
		for i := range spans {
			if spans[i].Name != "partition/refine" || spans[i].Parent < 0 {
				continue
			}
			parent := spans[spans[i].Parent]
			var cap int64
			var stage string
			switch parent.Name {
			case "repart/refine":
				cap, stage = partition.DefaultRefinePasses, "coarse"
				if level, _ := attr(parent, "level"); level == 0 {
					cap, stage = finestPasses, "finest"
				}
			case "repart/diffuse":
				cap, stage = polishPasses, "polish"
			default:
				continue
			}
			refined++
			passes, _ := attr(spans[i], "passes")
			stop, ok := attrStr(spans[i], "stop")
			if passes < 1 || passes > cap || !ok || stop == "pass_cap" && passes != cap ||
				stop != "balanced" && stop != "stalled" && stop != "pass_cap" {
				t.Errorf("shift %g %s %v: %d passes, cap %d, stop %q (recorded %v)", shift, parent.Name, parent.Attrs, passes, cap, stop, ok)
			}
			if stop == "pass_cap" {
				capped[stage]++
			}
		}
		if refined != int(depth)+int(fired) {
			t.Errorf("%d refiner spans under %d levels and %d diffusive finishes", refined, depth, fired)
		}
		if share := float64(covered) / float64(total); share < 0.95 {
			t.Errorf("direct children cover %.1f%% of repart/refine_warm (%v), want >= 95%%", 100*share, byName)
		}
	}
	if capped["finest"] == 0 || capped["polish"] == 0 {
		t.Errorf("no finest level or no polish stopped at its cap: %v", capped)
	}
}

func attrStr(sp obs.SpanRecord, key string) (string, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key && a.Kind == obs.AttrStr {
			return a.Str, true
		}
	}
	return "", false
}

func attr(sp obs.SpanRecord, key string) (int64, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key && a.Kind == obs.AttrInt {
			return a.Int, true
		}
	}
	return 0, false
}
