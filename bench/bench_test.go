package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"tempart/internal/obs"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 1, 1, 100}, 1},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Error("median reordered its input")
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		in   []float64
		p    float64
		want float64
	}{
		{hundred, 0.99, 99},
		{hundred, 0.50, 50},
		{hundred, 1, 100},
		{hundred, 0.001, 1},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{7}, 0.99, 7},
	} {
		if got := percentile(c.in, c.p); got != c.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(c.in), c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN")
	}
}

func TestSubSeed(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 20; seed++ {
		for stream := 0; stream < 8; stream++ {
			for i := -1; i < 40; i++ {
				s := subSeed(seed, stream, i)
				if s < 0 || s >= 1<<52 {
					t.Fatalf("subSeed(%d,%d,%d) = %d outside [0, 2^52)", seed, stream, i, s)
				}
				if seen[s] {
					t.Fatalf("subSeed(%d,%d,%d) = %d repeats an earlier value", seed, stream, i, s)
				}
				seen[s] = true
			}
		}
	}
	if subSeed(3, 1, 2) != subSeed(3, 1, 2) {
		t.Error("subSeed is not a pure function")
	}
}

func TestRequestSchedule(t *testing.T) {
	const n, hot, permille = 1000, 32, 40
	a := requestSchedule(11, 0, n, hot, permille)
	if !reflect.DeepEqual(a, requestSchedule(11, 0, n, hot, permille)) {
		t.Error("equal seeds gave different schedules")
	}
	if reflect.DeepEqual(a, requestSchedule(12, 0, n, hot, permille)) {
		t.Error("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(a, requestSchedule(11, 1, n, hot, permille)) {
		t.Error("the two callers of one run got the same schedule")
	}
	misses, top := 0, 0
	for _, k := range a {
		switch {
		case k == miss:
			misses++
		case k < 0 || k >= hot:
			t.Fatalf("hot index %d outside [0,%d)", k, hot)
		case k == 0:
			top++
		}
	}
	if misses != n*permille/1000 {
		t.Errorf("%d misses, want exactly %d", misses, n*permille/1000)
	}
	if top < n/8 {
		t.Errorf("hottest key asked for %d times of %d: not a Zipf mix", top, n)
	}
}

func TestDriftSchedule(t *testing.T) {
	a := driftSchedule(5, 0, 6, 0.03)
	if !reflect.DeepEqual(a, driftSchedule(5, 0, 6, 0.03)) {
		t.Error("equal seeds gave different drift schedules")
	}
	if reflect.DeepEqual(a, driftSchedule(6, 0, 6, 0.03)) {
		t.Error("different seeds gave the same drift schedule")
	}
	if reflect.DeepEqual(a, driftSchedule(5, 1, 6, 0.03)) {
		t.Error("two drifts of one run got the same schedule")
	}
	if len(a) != 6 {
		t.Fatalf("%d epochs, want 6", len(a))
	}
	for e := range a {
		want := 0.45 + 0.03*float64(e)
		if math.Abs(a[e]-want) > 0.003*float64(e+1)+1e-12 {
			t.Errorf("epoch %d at %.4f, more than the jitter away from %.4f", e, a[e], want)
		}
		if e > 0 && a[e] <= a[e-1] {
			t.Errorf("hotspot moved backwards at epoch %d", e)
		}
	}
}

func TestWorsening(t *testing.T) {
	up := metricSpec{Better: higher}
	down := metricSpec{Better: lower}
	if got := worsening(up, 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→90 worsens by %v, want 0.10", got)
	}
	if got := worsening(down, 100, 90); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→90 worsens by %v, want -0.10", got)
	}
}

func TestLayerTimesAndPartitionPhases(t *testing.T) {
	ms := func(n int64) int64 { return n * 1e6 }
	serial := []obs.Attr{{Key: serialAttr, Kind: obs.AttrInt, Int: 1}}
	spans := []obs.SpanRecord{
		{Name: "bench/partition", Parent: -1, Start: 0, End: ms(100), Attrs: serial},
		{Name: "partition", Parent: 0, Start: ms(1), End: ms(99)},
		{Name: "partition/coarsen", Parent: 1, Start: ms(1), End: ms(41)},
		{Name: "partition/coarsen/match", Parent: 2, Start: ms(1), End: ms(11)},
		{Name: "partition/initial", Parent: 1, Start: ms(41), End: ms(61)},
		{Name: "partition/refine", Parent: 1, Start: ms(61), End: ms(91)},
		{Name: "partition/refine/fm_pass", Parent: 5, Start: ms(61), End: ms(71)},
		{Name: "partition/refine/fm_pass", Parent: 5, Start: ms(71), End: ms(81)},
		{Name: "bench/partition", Parent: -1, Start: ms(100), End: ms(150)}, // two workers: not counted
		{Name: "partition", Parent: 8, Start: ms(100), End: ms(150)},
	}
	pp := serialPartitionPhases(spans)
	if pp.calls != 1 || pp.fmPasses != 2 {
		t.Fatalf("calls %d fm passes %d, want 1 and 2", pp.calls, pp.fmPasses)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !near(pp.wall, 0.100) || !near(pp.covered, 0.090) || !near(pp.byName["partition/coarsen/match"], 0.010) {
		t.Errorf("wall %v covered %v match %v", pp.wall, pp.covered, pp.byName["partition/coarsen/match"])
	}
	for _, lt := range layerTimes(spans) {
		switch lt.Name {
		case "partition/coarsen":
			if !near(lt.SelfSeconds, 0.030) {
				t.Errorf("coarsen self %v, want 0.030", lt.SelfSeconds)
			}
		case "partition/refine/fm_pass":
			if lt.Count != 2 || !near(lt.TotalSeconds, 0.020) {
				t.Errorf("fm_pass count %d total %v", lt.Count, lt.TotalSeconds)
			}
		case "bench/partition":
			if !near(lt.SelfSeconds, 0.002) {
				t.Errorf("bench/partition self %v, want 0.002", lt.SelfSeconds)
			}
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

// TestManifestMatchesSpec keeps BENCHMARK.json and the tables in spec.go and
// workloads.go one definition.
func TestManifestMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract names exactly 6", len(keys))
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Command, []string{"go", "run", "-C", "bench", "."}) || !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the counts in workloads.go are calibrated for %d", m.RunSeconds, refSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the code", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %q / %q differs from the code", i, m.Workloads[i].Name, m.Workloads[i].Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in spec.go", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, s := range want {
			g := got[i]
			if g.Name != s.Name || g.Unit != s.Unit || g.Better != s.Better {
				t.Errorf("%s[%d]: manifest %+v, spec %+v", kind, i, g, s)
			}
			if !nameRE.MatchString(s.Name) || !unitRE.MatchString(s.Unit) || seen[s.Name] {
				t.Errorf("%s: name %q or unit %q breaks the contract", kind, s.Name, s.Unit)
			}
			seen[s.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != s.Bound || s.Bound <= 0 || s.Bound > 0.25):
				t.Errorf("%s: bound of %s is %v in the manifest, %v in spec.go", kind, s.Name, g.Bound, s.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s carries a bound", kind, s.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	largest := 0.0
	for _, s := range endToEnd {
		largest = math.Max(largest, s.Bound)
	}
	if s, ok := findSpec(endToEnd, "setup_s"); !ok || s.Unit != "s" || s.Better != lower || s.Bound != largest {
		t.Errorf("setup_s must be in seconds, lower-is-better, with the largest bound: %+v", s)
	}
}

func shortRun(t *testing.T, name string, seed int64, traced bool) *report {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	rep, err := runWorkload(w.short(), seed, traced, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("%s: %d of %d gates failed: %v", name, rep.failed, rep.attempted, rep.failures)
	}
	return rep
}

func requireAll(t *testing.T, rep *report, table []metricSpec, nonZero bool) {
	t.Helper()
	for _, s := range table {
		m, ok := rep.metrics[s.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != s.Unit {
			t.Errorf("%s: missing or not a finite number in %s: %+v", s.Name, s.Unit, m)
		}
		if nonZero && m.Value == 0 {
			t.Errorf("%s is 0: an end-to-end metric must never be", s.Name)
		}
	}
}

// TestEveryWorkloadEmitsEveryEndToEndMetric runs a -short pass of each
// workload: all gates hold and all sixteen names come out.
func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		requireAll(t, shortRun(t, w.Name, 7, false), endToEnd, true)
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	rep := shortRun(t, "serve_mixed", 7, true)
	requireAll(t, rep, perLayer, false)
	if c := rep.metrics["partition.span_coverage"].Value; c < 0.9 || c > 1.0001 {
		t.Errorf("partition.span_coverage = %v, want within [0.9, 1]", c)
	}
}

// TestQualityMetricsRepeatExactly: what is a pure function of (code, seed)
// must not move between two runs of one seed, and must move with the seed.
func TestQualityMetricsRepeatExactly(t *testing.T) {
	a := shortRun(t, "repart_drift_cylinder", 3, false)
	b := shortRun(t, "repart_drift_cylinder", 3, false)
	c := shortRun(t, "repart_drift_cylinder", 4, false)
	exact, moved := 0, 0
	for _, s := range endToEnd {
		if a.metrics[s.Name].Samples != 0 {
			continue
		}
		exact++
		if a.metrics[s.Name].Value != b.metrics[s.Name].Value {
			t.Errorf("%s: %v then %v with the same seed", s.Name, a.metrics[s.Name].Value, b.metrics[s.Name].Value)
		}
		if a.metrics[s.Name].Value != c.metrics[s.Name].Value {
			moved++
		}
	}
	if exact < 6 {
		t.Errorf("only %d end-to-end metrics are marked exact", exact)
	}
	if moved == 0 {
		t.Error("no quality metric moved with the seed: the seed reaches nothing")
	}
}
