package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"tempart/internal/mesh"
	"tempart/internal/temporal"
)

// evalReq is smallReq plus an evaluate spec.
func evalReq(seed int64, evalJSON string) string {
	return fmt.Sprintf(`{"mesh":"CYLINDER","scale":0.002,"k":4,"strategy":"MC_TL","options":{"seed":%d},"evaluate":%s}`,
		seed, evalJSON)
}

func TestPartitionEvaluate(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL, evalReq(1, `{"procs":2,"workers":4,"scheduler":"eager"}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	var pr PartitionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	ev := pr.Eval
	if ev == nil {
		t.Fatalf("response has no eval block: %s", body)
	}
	if ev.Scheduler != "eager" || ev.Procs != 2 || ev.Workers != 4 || ev.Iterations != 1 {
		t.Fatalf("eval echo = %+v", ev)
	}
	if ev.Makespan <= 0 || ev.CriticalPath <= 0 || ev.Makespan < ev.CriticalPath {
		t.Fatalf("makespan %d vs critical path %d", ev.Makespan, ev.CriticalPath)
	}
	if ev.NumTasks <= 0 || ev.NumDeps <= 0 || ev.TotalWork <= 0 {
		t.Fatalf("graph stats = %+v", ev)
	}
	if ev.Efficiency <= 0 || ev.Efficiency > 1 {
		t.Fatalf("efficiency = %v, want (0, 1]", ev.Efficiency)
	}
	if ev.GraphCached {
		t.Fatalf("first evaluation cannot have a cached graph")
	}

	// Identical request: served byte-for-byte from the response cache.
	resp2, body2 := postJSON(t, ts.URL, evalReq(1, `{"procs":2,"workers":4,"scheduler":"eager"}`))
	if got := resp2.Header.Get("X-Tempartd-Cache"); got != "hit" {
		t.Fatalf("identical evaluate request cache header = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("cache returned different bytes")
	}

	m := fetchMetrics(t, ts.URL)
	if got := metricValue(t, m, "tempartd_eval_runs_total"); got != "1" {
		t.Fatalf("eval_runs_total = %q, want 1", got)
	}
}

// TestEvaluateCacheKeyDistinct pins that the evaluate spec is part of the
// request's content address: with/without a spec, and distinct specs, are
// distinct cache entries, while an equivalent spelling shares one.
func TestEvaluateCacheKeyDistinct(t *testing.T) {
	base := PartitionRequest{meshRef: meshRef{Name: "CYLINDER", Scale: 0.002}, K: 4, Strategy: "MC_TL"}
	if err := base.validate(); err != nil {
		t.Fatal(err)
	}
	withEval := base
	withEval.Evaluate = &EvalSpec{Procs: 2, Workers: 4}
	if err := withEval.validate(); err != nil {
		t.Fatal(err)
	}
	if base.key() == withEval.key() {
		t.Fatalf("evaluate spec must change the content address")
	}
	other := base
	other.Evaluate = &EvalSpec{Procs: 4, Workers: 4}
	if err := other.validate(); err != nil {
		t.Fatal(err)
	}
	if withEval.key() == other.key() {
		t.Fatalf("distinct evaluate specs must have distinct addresses")
	}
	// Canonicalization: "" and "eager" are the same scheduler.
	spelled := base
	spelled.Evaluate = &EvalSpec{Procs: 2, Workers: 4, Scheduler: "eager"}
	if err := spelled.validate(); err != nil {
		t.Fatal(err)
	}
	if withEval.key() != spelled.key() {
		t.Fatalf("default and explicit scheduler spellings must share an address")
	}
}

// TestEvaluateGraphReuse drives the graph cache across requests: the same
// decomposition scored under a different scheduler, and a keep-mode
// repartition re-scoring its parent's assignment, both skip rebuilding the
// task graph.
func TestEvaluateGraphReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL, evalReq(7, `{"procs":2,"workers":4}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition: status %d body %s", resp.StatusCode, body)
	}
	var pr PartitionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Eval == nil || pr.Eval.GraphCached {
		t.Fatalf("first eval block = %+v", pr.Eval)
	}

	// Same decomposition, different scheduler: new response-cache entry, but
	// the mesh id and partition are unchanged, so the graph is reused.
	resp2, body2 := postJSON(t, ts.URL, evalReq(7, `{"procs":2,"workers":4,"scheduler":"cpf"}`))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second partition: status %d body %s", resp2.StatusCode, body2)
	}
	var pr2 PartitionResponse
	if err := json.Unmarshal(body2, &pr2); err != nil {
		t.Fatal(err)
	}
	if pr2.Eval == nil || !pr2.Eval.GraphCached {
		t.Fatalf("strategy variant should reuse the cached graph: %+v", pr2.Eval)
	}
	if pr2.Eval.BuildMS != 0 {
		t.Fatalf("cached graph reports build time %v ms", pr2.Eval.BuildMS)
	}

	// Keep-mode repartition from the stored parent: the assignment (and the
	// generator mesh id) are unchanged, so scoring it hits the graph cache
	// instead of rebuilding the parent's task graph.
	req := fmt.Sprintf(`{"mesh":"CYLINDER","scale":0.002,"k":4,"strategy":"MC_TL","options":{"seed":8},"parent_hash":%q,"mode":"keep","evaluate":{"procs":2,"workers":4}}`, pr.PartHash)
	resp3, body3 := postRepart(t, ts.URL, req)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("repartition: status %d body %s", resp3.StatusCode, body3)
	}
	var rr RepartitionResponse
	if err := json.Unmarshal(body3, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Eval == nil {
		t.Fatalf("repartition response has no eval block: %s", body3)
	}
	if rr.Mode != "keep" {
		t.Fatalf("mode = %q, want keep", rr.Mode)
	}
	if !rr.Eval.GraphCached {
		t.Fatalf("keep-mode repartition should reuse the parent's graph: %+v", rr.Eval)
	}
	if rr.Eval.Makespan != pr.Eval.Makespan {
		t.Fatalf("keep-mode makespan %d differs from parent's %d", rr.Eval.Makespan, pr.Eval.Makespan)
	}

	m := fetchMetrics(t, ts.URL)
	if got := metricValue(t, m, "tempartd_eval_runs_total"); got != "3" {
		t.Fatalf("eval_runs_total = %q, want 3", got)
	}
	if got := metricValue(t, m, "tempartd_eval_graph_cache_hits_total"); got != "2" {
		t.Fatalf("eval_graph_cache_hits_total = %q, want 2", got)
	}
}

// TestEvaluateOctetStream exercises the eval_* query-parameter surface on a
// mesh upload, including the stable content-digest mesh id: re-uploading the
// same bytes with a different scheduler reuses the graph.
func TestEvaluateOctetStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	m := mesh.Strip([]temporal.Level{0, 0, 1, 1, 2, 2, 0, 1})
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	post := func(params string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/partition?k=2&strategy=SC_OC&seed=3"+params,
			"application/octet-stream", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	resp, body := post("&eval_procs=2&eval_workers=1&eval_scheduler=lifo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d body %s", resp.StatusCode, body)
	}
	var pr PartitionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Eval == nil || pr.Eval.Scheduler != "lifo" || pr.Eval.Makespan <= 0 {
		t.Fatalf("eval block = %+v", pr.Eval)
	}
	if pr.Eval.GraphCached {
		t.Fatalf("first upload cannot have a cached graph")
	}

	// Same bytes, different scheduler: response-cache miss, graph-cache hit
	// (the mesh id is the upload's content digest, the partition is seeded).
	resp2, body2 := post("&eval_procs=2&eval_workers=1&eval_scheduler=random&eval_seed=5")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second upload: status %d body %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Tempartd-Cache"); got != "miss" {
		t.Fatalf("distinct eval spec cache header = %q, want miss", got)
	}
	var pr2 PartitionResponse
	if err := json.Unmarshal(body2, &pr2); err != nil {
		t.Fatal(err)
	}
	if pr2.Eval == nil || !pr2.Eval.GraphCached {
		t.Fatalf("re-uploaded mesh should reuse the cached graph: %+v", pr2.Eval)
	}
}

func TestEvaluateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name, body string
	}{
		{"procs missing", evalReq(1, `{"workers":4}`)},
		{"procs negative", evalReq(1, `{"procs":-1}`)},
		{"procs huge", evalReq(1, fmt.Sprintf(`{"procs":%d}`, maxEvalProcs+1))},
		{"workers negative", evalReq(1, `{"procs":2,"workers":-1}`)},
		{"bad scheduler", evalReq(1, `{"procs":2,"scheduler":"heft"}`)},
		{"latency negative", evalReq(1, `{"procs":2,"comm_latency":-1}`)},
		{"iterations huge", evalReq(1, fmt.Sprintf(`{"procs":2,"iterations":%d}`, maxEvalIterations+1))},
		{"unknown field", evalReq(1, `{"procs":2,"bogus":1}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), "evaluate") && !strings.Contains(string(body), "unknown field") {
				t.Fatalf("error does not name the evaluate field: %s", body)
			}
		})
	}
}
