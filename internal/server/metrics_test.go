package server

import (
	"strings"
	"testing"

	"tempart/internal/obs"
)

// TestMetricsExpositionGolden pins the Prometheus text format the daemon
// emits: method-split request labels, label escaping, deterministic
// (sorted) series ordering, and cumulative histogram buckets ending in a
// le="+Inf" line that equals the _count.
func TestMetricsExpositionGolden(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	m := s.metrics

	// Out-of-order recording; the rendering must sort.
	m.requests.Inc("/v1/partition", "POST", "200")
	m.requests.Inc("/v1/jobs", "GET", "200")
	m.requests.Inc("/v1/jobs", "DELETE", "202")
	m.requests.Inc("/v1/jobs", "GET", "200")
	m.requests.Inc("/v1/jobs", "GET", "404")

	// A strategy label with a quote and a backslash exercises the escaping.
	for _, sec := range []float64{0.003, 0.5, 999} { // 999 is beyond the last bound -> +Inf bucket only
		m.partRuns.Inc(`SC"O\C`)
		m.partTimes.Observe(sec, `SC"O\C`)
	}

	got := scrape(t, s)

	// GET and DELETE on the jobs endpoint are distinct series, in sorted
	// order, and appear as one contiguous block.
	wantBlock := strings.Join([]string{
		`tempartd_requests_total{endpoint="/v1/jobs",method="DELETE",code="202"} 1`,
		`tempartd_requests_total{endpoint="/v1/jobs",method="GET",code="200"} 2`,
		`tempartd_requests_total{endpoint="/v1/jobs",method="GET",code="404"} 1`,
		`tempartd_requests_total{endpoint="/v1/partition",method="POST",code="200"} 1`,
	}, "\n")
	if !strings.Contains(got, wantBlock) {
		t.Errorf("request series missing or misordered; want block:\n%s\ngot:\n%s", wantBlock, got)
	}

	// Label escaping: the quote and backslash come out escaped.
	if want := `tempartd_partition_runs_total{strategy="SC\"O\\C"} 3`; !strings.Contains(got, want) {
		t.Errorf("escaped strategy label missing; want %q in:\n%s", want, got)
	}

	// Histogram: buckets are cumulative, +Inf closes the series at _count.
	for _, want := range []string{
		`tempartd_partition_latency_seconds_bucket{strategy="SC\"O\\C",le="0.005"} 1`,
		`tempartd_partition_latency_seconds_bucket{strategy="SC\"O\\C",le="0.5"} 2`,
		`tempartd_partition_latency_seconds_bucket{strategy="SC\"O\\C",le="120"} 2`,
		`tempartd_partition_latency_seconds_bucket{strategy="SC\"O\\C",le="+Inf"} 3`,
		`tempartd_partition_latency_seconds_count{strategy="SC\"O\\C"} 3`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("histogram line missing: %q\nin:\n%s", want, got)
		}
	}

	// Every HELP line is immediately followed by its TYPE line.
	lines := strings.Split(got, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "# HELP ") {
			name := strings.Fields(l)[2]
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Errorf("HELP for %s not followed by its TYPE line", name)
			}
		}
	}
}

// TestMetricsMethodSplit is the regression test for the bug where GET and
// DELETE on /v1/jobs/{id} collapsed into one series.
func TestMetricsMethodSplit(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	m := s.metrics
	m.requests.Inc("/v1/jobs", "GET", "404")
	m.requests.Inc("/v1/jobs", "DELETE", "404")
	if get, del := m.requests.Value("/v1/jobs", "GET", "404"), m.requests.Value("/v1/jobs", "DELETE", "404"); get != 1 || del != 1 {
		t.Fatalf("GET and DELETE with equal endpoint+code counted %d and %d, want 1 each", get, del)
	}
}

// TestMetricsDrainFolds checks the traced-pipeline families: draining folds
// each recorder's span counts, seconds and counters into cumulative totals,
// a phase name with a quote renders escaped, and a nil recorder (an
// untraced job) adds nothing.
func TestMetricsDrainFolds(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	for i := 0; i < 2; i++ {
		rec := obs.NewRecorder()
		rec.Graft(obs.Span{}, "", []obs.SpanRecord{{Name: `phase"quoted`, Parent: -1, End: 250_000_000}}, 0)
		rec.Count("eval.graph_cache_hit", 3)
		s.metrics.drain(rec)
	}
	s.metrics.drain(nil)
	got := scrape(t, s)
	for _, want := range []string{
		"# TYPE tempartd_pipeline_phase_seconds_total counter\n",
		`tempartd_pipeline_phase_seconds_total{phase="phase\"quoted"} 0.5` + "\n",
		`tempartd_pipeline_phase_spans_total{phase="phase\"quoted"} 2` + "\n",
		`tempartd_pipeline_events_total{event="eval.graph_cache_hit"} 6` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
}
