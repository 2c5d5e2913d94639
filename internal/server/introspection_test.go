package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"tempart/internal/obs"
)

func TestBuildinfoEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/buildinfo")
	if err != nil {
		t.Fatalf("GET /buildinfo: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var bi obs.BuildInfo
	if err := json.NewDecoder(resp.Body).Decode(&bi); err != nil {
		t.Fatalf("decoding buildinfo: %v", err)
	}
	if bi.GoVersion == "" || bi.OS == "" || bi.Arch == "" {
		t.Errorf("buildinfo incomplete: %+v", bi)
	}
}

func TestRequestIDEchoedAndGenerated(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/v1/meshes")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id == "" {
		t.Error("no X-Request-Id generated")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/meshes", nil)
	req.Header.Set("X-Request-Id", "client-chose-this")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Request-Id"); id != "client-chose-this" {
		t.Errorf("X-Request-Id = %q, want the client's id echoed", id)
	}
}

// lineWriter hands each access-log line to the test as it is written; the
// line is logged after the response is out, so the test waits for it.
type lineWriter chan []byte

func (w lineWriter) Write(p []byte) (int, error) {
	w <- append([]byte(nil), p...)
	return len(p), nil
}

// TestAccessLogRecordsCacheTier: each access-log line names the tier that
// answered, as X-Tempartd-Cache does — a first request misses, its repeat
// hits the memory cache.
func TestAccessLogRecordsCacheTier(t *testing.T) {
	lines := make(lineWriter, 2) // one line per request
	_, ts := newTestServer(t, Config{Workers: 1, AccessLog: slog.New(slog.NewJSONHandler(lines, nil))})

	for _, want := range []string{"miss", "hit"} {
		resp, body := postJSON(t, ts.URL, smallReq(41))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("partition: status %d body %s", resp.StatusCode, body)
		}
		var line []byte
		select {
		case line = <-lines:
		case <-time.After(5 * time.Second):
			t.Fatal("no access-log line within 5s")
		}
		var rec struct {
			ID       string `json:"id"`
			Endpoint string `json:"endpoint"`
			Status   int    `json:"status"`
			Cache    string `json:"cache"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("access-log line %q: %v", line, err)
		}
		if rec.Cache != want || rec.Cache != resp.Header.Get("X-Tempartd-Cache") {
			t.Fatalf("access log cache = %q, header %q, want %q (line %s)", rec.Cache, resp.Header.Get("X-Tempartd-Cache"), want, line)
		}
		if rec.ID != resp.Header.Get("X-Request-Id") || rec.Status != http.StatusOK || rec.Endpoint == "" {
			t.Fatalf("access-log line %s does not match the response", line)
		}
	}
}

// TestDebugTracePartition checks the ?debug=trace contract: the response
// gains a debug block with partition phases, the traced payload is never
// cached (a repeat plain request misses), and the traced run's phase totals
// surface on /metrics under the tempartd_pipeline_* prefix.
func TestDebugTracePartition(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Post(ts.URL+"/v1/partition?debug=trace", "application/json",
		strings.NewReader(smallReq(42)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var pr PartitionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if pr.Debug == nil {
		t.Fatal("traced response has no debug block")
	}
	if pr.Debug.Spans == 0 {
		t.Error("debug block reports zero spans")
	}
	phases := map[string]bool{}
	for _, p := range pr.Debug.Phases {
		phases[p.Name] = true
	}
	for _, want := range []string{"partition", "partition/coarsen", "partition/refine"} {
		if !phases[want] {
			t.Errorf("debug block missing phase %q (have %v)", want, pr.Debug.Phases)
		}
	}

	// The traced payload must not have seeded the cache: the same request
	// without the flag is a miss (and its cached result carries no debug).
	resp2, body2 := postJSON(t, ts.URL, smallReq(42))
	if got := resp2.Header.Get("X-Tempartd-Cache"); got != "miss" {
		t.Errorf("plain request after traced one: cache %q, want miss", got)
	}
	var pr2 PartitionResponse
	if err := json.Unmarshal(body2, &pr2); err != nil {
		t.Fatal(err)
	}
	if pr2.Debug != nil {
		t.Error("untraced response unexpectedly carries a debug block")
	}

	metrics := fetchMetrics(t, ts.URL)
	if !strings.Contains(metrics, `tempartd_pipeline_phase_seconds_total{phase="partition"}`) {
		t.Errorf("traced run did not feed tempartd_pipeline_* metrics:\n%s", metrics)
	}
}
