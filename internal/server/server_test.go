package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tempart/internal/mesh"
	"tempart/internal/temporal"
)

// smallReq is a fast request (sub-second on any machine) used throughout.
func smallReq(seed int64) string {
	return fmt.Sprintf(`{"mesh":"CYLINDER","scale":0.002,"k":4,"strategy":"MC_TL","options":{"seed":%d}}`, seed)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/partition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, b
}

func fetchMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

func metricValue(t *testing.T, metrics, line string) string {
	t.Helper()
	for _, l := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(l, line+" ") {
			return strings.TrimPrefix(l, line+" ")
		}
	}
	return ""
}

func TestPartitionSyncCacheHitAndQuality(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL, smallReq(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Tempartd-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q, want miss", got)
	}
	var pr PartitionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if pr.K != 4 || pr.Strategy != "MC_TL" || len(pr.Part) != pr.Mesh.Cells {
		t.Fatalf("malformed response: k=%d strat=%q len(part)=%d cells=%d",
			pr.K, pr.Strategy, len(pr.Part), pr.Mesh.Cells)
	}
	if len(pr.Quality.LevelImbalance) == 0 || pr.Quality.NumDomains != 4 {
		t.Fatalf("quality block missing: %+v", pr.Quality)
	}

	resp2, body2 := postJSON(t, ts.URL, smallReq(1))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Tempartd-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("cache returned different bytes than the original run")
	}

	m := fetchMetrics(t, ts.URL)
	if got := metricValue(t, m, "tempartd_cache_hits_total"); got != "1" {
		t.Fatalf("cache_hits_total = %q, want 1\nmetrics:\n%s", got, m)
	}
	if got := metricValue(t, m, "tempartd_cache_misses_total"); got != "1" {
		t.Fatalf("cache_misses_total = %q, want 1", got)
	}
	if !strings.Contains(m, `tempartd_partition_runs_total{strategy="MC_TL"} 1`) {
		t.Fatalf("expected exactly one partition run in metrics:\n%s", m)
	}
	// A different seed is a different content address: miss again.
	resp3, _ := postJSON(t, ts.URL, smallReq(2))
	if got := resp3.Header.Get("X-Tempartd-Cache"); got != "hit" && resp3.StatusCode == http.StatusOK {
		// expected: miss
		if got == "hit" {
			t.Fatalf("distinct request must not hit the cache")
		}
	}
}

func TestSingleflightDedup(t *testing.T) {
	// Gate execution so both requests are provably in flight together.
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	s, ts := newTestServer(t, Config{Workers: 2, execGate: func(ctx context.Context, r *PartitionRequest) error {
		started <- struct{}{}
		<-release
		return nil
	}})

	const n = 4
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL, smallReq(7))
			codes[i] = resp.StatusCode
			bodies[i] = body
		}(i)
	}
	// Exactly one execution must start even with 2 idle workers.
	<-started
	select {
	case <-started:
		t.Fatalf("two executions started for identical concurrent requests")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
	if runs := s.metrics.partRuns.Value("MC_TL"); runs != 1 {
		t.Fatalf("partition ran %d times, want 1 (singleflight)", runs)
	}
}

func TestQueueFull429(t *testing.T) {
	block := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1,
		execGate: func(ctx context.Context, r *PartitionRequest) error {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil
		}})
	defer close(block)

	// Occupy the single worker, then fill the single queue slot. Async
	// submissions return immediately, so admission order is deterministic
	// once the first job reports running.
	submit := func(seed int64) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/v1/partition?async=1", "application/json",
			strings.NewReader(smallReq(seed)))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}
	r1, _ := submit(100)
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d", r1.StatusCode)
	}
	waitInflight(t, s, 1)
	r2, _ := submit(101)
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d", r2.StatusCode)
	}

	r3, body := postJSON(t, ts.URL, smallReq(102))
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, body %s, want 429", r3.StatusCode, body)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}
	m := fetchMetrics(t, ts.URL)
	if got := metricValue(t, m, "tempartd_queue_rejected_total"); got != "1" {
		t.Fatalf("queue_rejected_total = %q, want 1", got)
	}
	if got := metricValue(t, m, "tempartd_queue_depth"); got != "1" {
		t.Fatalf("queue_depth = %q, want 1", got)
	}
}

func waitInflight(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.inflight.Load() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("inflight never reached %d", want)
}

func TestAsyncJobLifecycleAndCancel(t *testing.T) {
	gateReached := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1,
		execGate: func(ctx context.Context, r *PartitionRequest) error {
			close(gateReached)
			<-ctx.Done() // hold until cancelled: simulates a runaway job
			return nil
		}})

	resp, err := http.Post(ts.URL+"/v1/partition?async=1", "application/json",
		strings.NewReader(smallReq(55)))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		JobID string `json:"job_id"`
		URL   string `json:"url"`
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d body %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &acc); err != nil || acc.JobID == "" {
		t.Fatalf("bad accept body %s: %v", b, err)
	}
	<-gateReached

	get := func() jobView {
		r, err := http.Get(ts.URL + acc.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var v jobView
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := get(); v.State != "running" {
		t.Fatalf("job state = %q, want running", v.State)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+acc.URL, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", dr.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		v := get()
		if v.State == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached cancelled state, still %q", v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if hits := s.metrics.cacheHits.Value(); hits != 0 {
		t.Fatalf("cancelled job must not populate the cache")
	}
	m := fetchMetrics(t, ts.URL)
	if got := metricValue(t, m, "tempartd_jobs_cancelled_total"); got != "1" {
		t.Fatalf("jobs_cancelled_total = %q, want 1", got)
	}
}

func TestClientDisconnectCancelsJob(t *testing.T) {
	gateReached := make(chan struct{})
	cancelled := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1,
		execGate: func(ctx context.Context, r *PartitionRequest) error {
			close(gateReached)
			<-ctx.Done()
			close(cancelled)
			return nil
		}})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/partition",
		strings.NewReader(smallReq(77)))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	<-gateReached
	cancel() // client walks away mid-job

	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatalf("job context never cancelled after client disconnect")
	}
	if err := <-errc; err == nil {
		t.Fatalf("client request should have failed after cancel")
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	slow := make(chan struct{})
	s := New(Config{Workers: 1, execGate: func(ctx context.Context, r *PartitionRequest) error {
		<-slow
		return nil
	}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/partition?async=1", "application/json",
		strings.NewReader(smallReq(200)))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct {
		JobID string `json:"job_id"`
		URL   string `json:"url"`
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(b, &acc); err != nil {
		t.Fatalf("accept body %s: %v", b, err)
	}
	waitInflight(t, s, 1)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// While draining: health says 503 and new work is refused.
	waitDraining(t, ts.URL)
	r2, _ := postJSON(t, ts.URL, smallReq(201))
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d, want 503", r2.StatusCode)
	}

	close(slow) // let the in-flight job finish
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The drained job completed with a result.
	r3, err := http.Get(ts.URL + acc.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	var v jobView
	if err := json.NewDecoder(r3.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.State != "done" || len(v.Result) == 0 {
		t.Fatalf("drained job state = %q (result %d bytes), want done with result", v.State, len(v.Result))
	}
}

func waitDraining(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusServiceUnavailable {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("healthz never reported draining")
}

func TestMeshUploadOctetStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	m := mesh.Strip([]temporal.Level{0, 0, 1, 1, 2, 2, 0, 1})
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/partition?k=2&strategy=SC_OC&seed=3",
		"application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d body %s", resp.StatusCode, body)
	}
	var pr PartitionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Part) != m.NumCells() {
		t.Fatalf("len(part) = %d, want %d", len(pr.Part), m.NumCells())
	}

	// Identical upload: content-addressed hit.
	resp2, err := http.Post(ts.URL+"/v1/partition?k=2&strategy=SC_OC&seed=3",
		"application/octet-stream", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Tempartd-Cache"); got != "hit" {
		t.Fatalf("identical upload cache header = %q, want hit", got)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name, ctype, body string
		want              int
	}{
		{"malformed json", "application/json", `{"mesh":`, http.StatusBadRequest},
		{"unknown mesh", "application/json", `{"mesh":"TORUS","scale":0.01,"k":4,"strategy":"MC_TL"}`, http.StatusBadRequest},
		{"bad strategy", "application/json", `{"mesh":"CUBE","scale":0.01,"k":4,"strategy":"METIS"}`, http.StatusBadRequest},
		{"k zero", "application/json", `{"mesh":"CUBE","scale":0.01,"k":0,"strategy":"MC_TL"}`, http.StatusBadRequest},
		{"k huge", "application/json", `{"mesh":"CUBE","scale":0.01,"k":99999999,"strategy":"MC_TL"}`, http.StatusBadRequest},
		{"scale zero", "application/json", `{"mesh":"CUBE","scale":0,"k":4,"strategy":"MC_TL"}`, http.StatusBadRequest},
		{"corrupt tmsh", "application/octet-stream", "XXXXnot-a-mesh", http.StatusBadRequest},
		{"unknown field", "application/json", `{"mesh":"CUBE","scale":0.01,"k":4,"strategy":"MC_TL","bogus":1}`, http.StatusBadRequest},
		{"bad content type", "text/csv", "a,b", http.StatusUnsupportedMediaType},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/partition?k=2&strategy=SC_OC", tc.ctype, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}

	// Wrong method → 405 from the pattern router.
	resp, err := http.Get(ts.URL + "/v1/partition")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/partition: status %d, want 405", resp.StatusCode)
	}

	// Unknown job id → 404.
	resp, err = http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func TestMeshesAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/v1/meshes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Meshes []meshView `json:"meshes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if len(v.Meshes) != 3 || v.Meshes[0].Name != "CYLINDER" {
		t.Fatalf("unexpected mesh list: %+v", v.Meshes)
	}

	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", h.StatusCode)
	}
}

// TestHugeTimeoutCappedByServer pins that a timeout_ms beyond the server's
// cap runs under the cap. Converted to nanoseconds these values overflow
// int64, and an overflowed negative deadline used to fail the job at once
// with 504.
func TestHugeTimeoutCappedByServer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for i, ms := range []int64{10_000_000_000_000, math.MaxInt64} {
		resp, body := postJSON(t, ts.URL, fmt.Sprintf(
			`{"mesh":"CYLINDER","scale":0.002,"k":4,"strategy":"MC_TL","options":{"seed":%d},"timeout_ms":%d}`, i, ms))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("timeout_ms = %d: status %d: %s", ms, resp.StatusCode, body)
		}
	}
}
