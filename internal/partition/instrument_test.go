package partition

import (
	"context"
	"testing"

	"tempart/internal/graph"
	"tempart/internal/obs"
)

// TestPartitionUnchangedByTracing pins the observability contract: attaching
// a recorder must not perturb the construction — the assignment stays
// byte-identical to an untraced run at every parallelism, because spans never
// touch the RNG streams.
func TestPartitionUnchangedByTracing(t *testing.T) {
	g := graph.Grid(24, 24)
	opt := Options{Seed: 7, Trials: 2}
	base, err := Partition(context.Background(), g, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		o := opt
		o.Parallelism = par
		rec := obs.NewRecorder()
		ctx := obs.WithRecorder(context.Background(), rec)
		traced, err := Partition(ctx, g, 6, o)
		if err != nil {
			t.Fatal(err)
		}
		for v := range base.Part {
			if base.Part[v] != traced.Part[v] {
				t.Fatalf("parallelism %d: traced partition diverges at vertex %d", par, v)
			}
		}
		spans := rec.Snapshot()
		if len(spans) == 0 {
			t.Fatalf("parallelism %d: recorder captured no spans", par)
		}
		if spans[0].Name != "partition" {
			t.Errorf("first span = %q, want partition", spans[0].Name)
		}
		totals := rec.PhaseTotals()
		for _, phase := range []string{"partition/coarsen", "partition/initial", "partition/refine"} {
			if totals[phase].Count == 0 {
				t.Errorf("parallelism %d: no %s spans recorded", par, phase)
			}
		}
		// Work counters: every configured initial trial is accounted for as
		// run or skipped (a seed vertex already tried), a run trial may be a
		// duplicate (it grew an earlier trial's assignment), and 2-way
		// refine spans say how many sweeps they paid and passes they skipped.
		for _, sp := range spans {
			switch sp.Name {
			case "partition/initial":
				run, okRun := intAttr(sp, "trials_run")
				skipped, okSkip := intAttr(sp, "trials_skipped")
				if want := int64(o.withDefaults(g.NCon).InitTrials); !okRun || !okSkip || run < 1 || run+skipped != want {
					t.Errorf("parallelism %d: initial span ran %d + skipped %d trials, want %d in all", par, run, skipped, want)
				}
				if dup, ok := intAttr(sp, "trials_dup"); !ok || dup < 0 || dup >= run {
					t.Errorf("parallelism %d: initial span ran %d trials, %d of them duplicates", par, run, dup)
				}
			case "partition/refine":
				if _, polish := intAttr(sp, "climb_passes"); polish {
					checkClimbCounters(t, sp) // the k-way polish, not a 2-way refinement
					continue
				}
				if _, greedy := intAttr(sp, "candidates"); greedy {
					checkGreedyCounters(t, sp) // the polish's greedy passes
					continue
				}
				sweeps, okSweeps := intAttr(sp, "sweeps")
				skipped, okSkip := intAttr(sp, "passes_skipped")
				if !okSweeps || !okSkip || sweeps+skipped != 1 {
					t.Errorf("parallelism %d: refine span has sweeps %d, passes_skipped %d", par, sweeps, skipped)
				}
			}
		}
		if rec.Counters()["partition.trials"] != 2 {
			t.Errorf("trials counter = %d, want 2", rec.Counters()["partition.trials"])
		}
	}
}

// TestRefineKWayUnchangedByTracing is the same contract for the refiner the
// repartitioner drives, biased, at every parallelism.
func TestRefineKWayUnchangedByTracing(t *testing.T) {
	g := weightedGrid(t, 40, 40, 2)
	n := g.NumVertices()
	const k = 10
	initial := stripedAssignment(n, k)
	bias := testBias(initial, true)
	opt := RefineOptions{Parallelism: 1}
	base := append([]int32(nil), initial...)
	if err := refineFresh(context.Background(), g, base, k, opt, bias.origin, bias.pen); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		opt.Parallelism = par
		rec := obs.NewRecorder()
		traced := append([]int32(nil), initial...)
		if err := refineFresh(obs.WithRecorder(context.Background(), rec), g, traced, k, opt, bias.origin, bias.pen); err != nil {
			t.Fatal(err)
		}
		for v := range base {
			if base[v] != traced[v] {
				t.Fatalf("parallelism %d: traced refinement diverges at vertex %d", par, v)
			}
		}
		spans := rec.Snapshot()
		if len(spans) != 1 || spans[0].Name != "partition/refine" {
			t.Fatalf("parallelism %d: spans %+v, want one partition/refine", par, spans)
		}
		checkGreedyCounters(t, spans[0])
		if moves, _ := intAttr(spans[0], "moves"); moves == 0 {
			t.Errorf("parallelism %d: striped assignment refined with no move", par)
		}
	}
}

// checkGreedyCounters checks the work counters of a greedy refinement span
// (Refiner.Refine): at least one pass ran, every committed or stale move was
// a candidate of a scan, and every candidate a visited vertex's.
func checkGreedyCounters(t *testing.T, sp obs.SpanRecord) {
	t.Helper()
	val := func(key string) int64 {
		v, ok := intAttr(sp, key)
		if !ok {
			t.Errorf("greedy refine span lacks %q", key)
		}
		return v
	}
	passes, visited, cands, moves, stale := val("passes"), val("visited"), val("candidates"), val("moves"), val("stale")
	if passes < 1 || moves < 0 || stale < 0 || moves+stale > cands || cands > visited {
		t.Errorf("implausible counters passes=%d visited=%d candidates=%d moves=%d stale=%d", passes, visited, cands, moves, stale)
	}
	if _, climbed := intAttr(sp, "climb_passes"); climbed {
		t.Errorf("greedy refine span carries climb counters")
	}
}

// checkClimbCounters checks the climb counters of a k-way refinement span
// (PolishRB, DirectKWay): at least one pass ran, every kept or
// rolled-back move was tried, and no more moves crossed a cap than were
// tried.
func checkClimbCounters(t *testing.T, sp obs.SpanRecord) {
	t.Helper()
	val := func(key string) int64 {
		v, ok := intAttr(sp, key)
		if !ok {
			t.Errorf("climb span lacks %q", key)
		}
		return v
	}
	passes, tried, kept, rolled := val("climb_passes"), val("climb_tried"), val("climb_kept"), val("climb_rolled_back")
	crossings := val("climb_crossings")
	if passes < 1 || kept < 0 || rolled < 0 || kept+rolled != tried || crossings < 0 || crossings > tried {
		t.Errorf("implausible counters climb_passes=%d tried=%d kept=%d rolled_back=%d crossings=%d", passes, tried, kept, rolled, crossings)
	}
}

func intAttr(sp obs.SpanRecord, key string) (int64, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key && a.Kind == obs.AttrInt {
			return a.Int, true
		}
	}
	return 0, false
}
