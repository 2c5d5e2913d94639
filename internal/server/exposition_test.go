package server

import (
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tempart/internal/cluster"
	"tempart/internal/mesh"
	"tempart/internal/obs"
	"tempart/internal/partition"
	"tempart/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files")

// TestMetricsExpositionPopulated pins the full /metrics text of a daemon
// with a store, a cluster and traced jobs, every family holding series.
// Dashboards are written against these names, label sets, value formats
// and orderings; an intended change rewrites testdata/metrics_populated.txt
// with -update.
func TestMetricsExpositionPopulated(t *testing.T) {
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cl, release := fixtureCluster(t)
	s := New(Config{Workers: 1, Store: st, Cluster: cl})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()); release() })

	ctx := context.Background()
	for i, data := range []string{"payload-a", "payload-b", "payload-a"} {
		key := []string{"aa", "bb", "aa"}[i]
		if err := st.Commit(ctx, store.Commit{Puts: []store.Put{{NS: store.NSResult, Key: key, Data: []byte(data)}}}); err != nil {
			t.Fatal(err)
		}
	}
	st.Get(store.NSResult, "aa")
	st.Get(store.NSResult, "cc")
	s.cache.put(cacheKey{1}, []byte(`{"fixture":1}`))
	s.cache.put(cacheKey{2}, []byte(`{"fixture":22}`))

	populateServerMetrics(s)
	driveCluster(t, cl)
	for _, spans := range [][]obs.SpanRecord{
		{{Name: "partition/coarsen", Parent: -1, End: 1_500_000}, {Name: "partition/refine", Parent: 0, Start: 1_500_000, End: 2_000_000}},
		{{Name: "partition/coarsen", Parent: -1, End: 2_500_000}},
	} {
		rec := obs.NewRecorder()
		rec.Graft(obs.Span{}, "", spans, 0)
		rec.Count("eval.graph_cache_hit", 2)
		s.metrics.drain(rec)
	}

	checkExpositionGolden(t, s, "metrics_populated.txt")
}

// TestMetricsExpositionIdle pins /metrics of a fresh single-node daemon.
func TestMetricsExpositionIdle(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	checkExpositionGolden(t, s, "metrics_idle.txt")
}

// populateServerMetrics records a fixed set of server observations with
// fixed durations, so every value in the exposition is reproducible.
func populateServerMetrics(s *Server) {
	m := s.metrics
	m.requests.Inc("/v1/partition", "POST", "200")
	m.requests.Inc("/v1/partition", "POST", "200")
	m.requests.Inc("/v1/partition", "POST", "429")
	m.requests.Inc("/v1/jobs", "GET", "200")
	m.requests.Inc("/v1/jobs", "DELETE", "202")
	for _, run := range []struct {
		strategy string
		seconds  float64
	}{{"MC_TL", 0.003}, {"MC_TL", 0.5}, {"SC_OC", 999}} {
		m.partRuns.Inc(run.strategy)
		m.partTimes.Observe(run.seconds, run.strategy)
	}
	m.repartRuns.Inc("refine")
	m.repartTimes.Observe(0.02, "refine")
	m.migrationBytes.Observe(3000)
	m.repartRuns.Inc("scratch")
	m.repartTimes.Observe(0.2, "scratch")
	m.migrationBytes.Observe(1 << 21)
	m.parentHits.Add(2)
	m.parentMisses.Inc()
	m.httpTimes.Observe(0.004, "/v1/partition")
	m.httpTimes.Observe(0.7, "/v1/partition")
	m.httpTimes.Observe(0.0001, "/v1/jobs")
	m.admissionWait.Observe(0.002)
	m.admissionWait.Observe(0.03)
	m.cacheHits.Add(2)
	m.cacheMisses.Inc()
	m.evalRuns.Add(2)
	m.evalGraphHits.Inc()
	m.queueRejected.Inc()
	m.jobsCancelled.Inc()
}

// fixtureCluster is member n1 of a three-node fleet whose peers answer
// through an in-process transport: n2 is alive (its subtree RPCs hang until
// release, so a hedge wins them), n3 refuses every connection.
func fixtureCluster(t *testing.T) (*cluster.Cluster, func()) {
	hang := make(chan struct{})
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Host == "n3" {
			return nil, errors.New("connection refused")
		}
		code := http.StatusOK
		switch {
		case strings.HasPrefix(r.URL.Path, "/v1/internal/subtree"):
			select {
			case <-hang:
			case <-r.Context().Done():
			}
			code = http.StatusServiceUnavailable
		case r.URL.Path == "/v1/internal/cache/miss":
			code = http.StatusNotFound
		}
		return &http.Response{StatusCode: code, Body: io.NopCloser(strings.NewReader("{}")), Header: http.Header{}, Request: r}, nil
	})
	cl, err := cluster.New(cluster.Options{
		NodeID:           "n1",
		Peers:            fleetPeers,
		BreakerThreshold: 2,
		RetryBackoff:     time.Millisecond,
		HedgeDelay:       time.Millisecond,
		Transport:        rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, func() { close(hang) }
}

// fleetPeers is the membership of the cluster fixtureCluster builds.
var fleetPeers = []cluster.Node{{ID: "n1"}, {ID: "n2", URL: "http://n2"}, {ID: "n3", URL: "http://n3"}}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// driveCluster exercises every cluster counter family once through the
// public API: relayed and failed forwards (n3's failures open its breaker),
// a probe hit and miss, and a two-member fan-out whose peer subtree a
// hedge wins.
func driveCluster(t *testing.T, cl *cluster.Cluster) {
	ctx := context.Background()
	n2, n3 := fleetPeers[1], fleetPeers[2]
	for i := 0; i < 2; i++ {
		if _, err := cl.Forward(ctx, n2, "/v1/partition", "", "application/json", "", "", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Forward(ctx, n3, "/v1/partition", "", "application/json", "", "", nil); err == nil {
		t.Fatal("forward to a refusing peer succeeded")
	}
	if _, hit, err := cl.ProbeCache(ctx, n2, "hit", "", ""); err != nil || !hit {
		t.Fatalf("probe hit = %v, %v", hit, err)
	}
	if _, hit, err := cl.ProbeCache(ctx, n2, "miss", "", ""); err != nil || hit {
		t.Fatalf("probe miss = %v, %v", hit, err)
	}
	g, err := partition.StrategyGraph(mesh.Cube(0.005), partition.MCTL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.FanoutPartition(ctx, g, cluster.FanoutRequest{Strategy: "MC_TL", K: 4}); err != nil {
		t.Fatal(err)
	}
	cl.CountSubtreeServed()
}

// checkExpositionGolden scrapes /metrics, runs the text through the
// exposition checker and compares it with testdata/name. The runtime
// families vary from scrape to scrape, so their sample values are masked:
// they are pinned by name, HELP, TYPE and bucket bounds only.
func checkExpositionGolden(t *testing.T, s *Server, name string) {
	t.Helper()
	got := scrape(t, s)
	lines := strings.SplitAfter(got, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "tempartd_runtime_") {
			lines[i] = l[:strings.LastIndexByte(l, ' ')] + " *\n"
		}
	}
	got = strings.Join(lines, "")
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("/metrics drifted from %s.\n--- got ---\n%s", path, got)
	}
}

// scrape returns the daemon's /metrics text after running it through the
// exposition checker.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	got := rec.Body.String()
	if err := obs.CheckExposition(got); err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, got)
	}
	return got
}
