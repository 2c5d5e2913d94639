package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tempart/internal/mesh"
	"tempart/internal/store"
	"tempart/internal/temporal"
)

// openDiskStore opens (or reopens) a disk-backed store.
func openDiskStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("opening store at %s: %v", dir, err)
	}
	return st
}

func encodeStripMesh(t *testing.T) []byte {
	t.Helper()
	m := mesh.Strip([]temporal.Level{0, 0, 1, 1, 2, 2, 0, 1})
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestartResumeAsyncJob is the end-to-end durability acceptance test: an
// uploaded mesh is submitted async, the daemon "crashes" mid-run (store
// handles cut without sync, batcher pending discarded), and a new server over
// the same directory must requeue the job under its original id, complete it,
// and serve both the mesh and the result byte-identically from the store.
// Finally the provenance chain verifies clean — and detects a flipped byte.
func TestRestartResumeAsyncJob(t *testing.T) {
	dir := t.TempDir()
	meshRaw := encodeStripMesh(t)
	meshDigest := sha256.Sum256(meshRaw)

	st1 := openDiskStore(t, dir)
	gateReached := make(chan struct{})
	block := make(chan struct{})
	s1 := New(Config{Workers: 1, Store: st1,
		execGate: func(ctx context.Context, r *PartitionRequest) error {
			close(gateReached)
			<-block
			return nil
		}})
	ts1 := httptest.NewServer(s1.Handler())

	resp, err := http.Post(ts1.URL+"/v1/partition?k=2&strategy=SC_OC&seed=9&async=1",
		"application/octet-stream", bytes.NewReader(meshRaw))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d body %s", resp.StatusCode, b)
	}
	var acc struct {
		JobID string `json:"job_id"`
		URL   string `json:"url"`
	}
	if err := json.Unmarshal(b, &acc); err != nil || acc.JobID == "" {
		t.Fatalf("bad accept body %s: %v", b, err)
	}
	<-gateReached

	// The 202 is out, so the submitted record and mesh blob are durable. Kill
	// the store as a crash would: pending batch discarded, files not synced.
	st1.Crash()
	close(block) // the old worker unwinds; its persist fails on the dead store
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s1.Shutdown(ctx) // flush on a crashed store errors; that's the point

	// Restart over the same directory. CacheBytes: 1 rejects every payload so
	// the later sync GET must come from the store, not the LRU.
	st2 := openDiskStore(t, dir)
	defer st2.Close()
	if stats := st2.Stats(); stats.JobsPending != 1 {
		t.Fatalf("JobsPending = %d after crash, want 1 (stats %+v)", stats.JobsPending, stats)
	}
	s2 := New(Config{Workers: 1, Store: st2, CacheBytes: 1})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// The interrupted job must resume under its ORIGINAL id and complete
	// without any client re-submission.
	var v jobView
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts2.URL + acc.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("job %s unknown after restart: status %d body %s", acc.JobID, r.StatusCode, body)
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == "done" {
			break
		}
		if v.State == "failed" || v.State == "cancelled" {
			t.Fatalf("replayed job reached %q: %s", v.State, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job never completed, still %q", v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if len(v.Result) == 0 {
		t.Fatalf("done job view has no result")
	}

	// A fresh synchronous request for the same content address must be served
	// byte-identically out of the store (the 1-byte LRU can't hold it).
	resp2, err := http.Post(ts2.URL+"/v1/partition?k=2&strategy=SC_OC&seed=9",
		"application/octet-stream", bytes.NewReader(meshRaw))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-restart request: status %d body %s", resp2.StatusCode, payload)
	}
	if got := resp2.Header.Get("X-Tempartd-Cache"); got != "store" {
		t.Fatalf("post-restart cache header = %q, want store", got)
	}
	if !bytes.Equal(payload, []byte(v.Result)) {
		t.Fatalf("store-served payload differs from the replayed job's result")
	}

	// The uploaded mesh survived the crash byte-for-byte.
	gotMesh, ok := st2.Get(store.NSMesh, hex.EncodeToString(meshDigest[:]))
	if !ok {
		t.Fatalf("mesh blob missing from store after restart")
	}
	if !bytes.Equal(gotMesh, meshRaw) {
		t.Fatalf("persisted mesh differs from upload")
	}

	if err := s2.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}

	// Offline verification walks the chain clean...
	rep, err := store.VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("verify after clean shutdown failed: %v", rep.Problems)
	}
	// ...and catches a single flipped byte in the log.
	logPath := filepath.Join(dir, "prov.log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep2, err := store.VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OK() {
		t.Fatalf("verify did not detect a flipped byte in %s", logPath)
	}
}

// gatedBlob is an in-memory store.Blob whose Puts block while the gate is
// held, so a test can keep a store flush open and queue commits behind it.
// Its map outlives the store that wrote it, like an object store would.
type gatedBlob struct {
	mu     sync.Mutex
	m      map[string][]byte
	gate   chan struct{}
	parked chan struct{} // closed by the first Put to reach the gate
	park   sync.Once
}

func newGatedBlob() *gatedBlob {
	return &gatedBlob{m: map[string][]byte{}, gate: make(chan struct{}), parked: make(chan struct{})}
}

func (g *gatedBlob) Put(ns, key string, data []byte) error {
	g.park.Do(func() { close(g.parked) })
	<-g.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	g.m[ns+"/"+key] = append([]byte(nil), data...)
	return nil
}

func (g *gatedBlob) Get(ns, key string) ([]byte, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	data, ok := g.m[ns+"/"+key]
	if !ok {
		return nil, store.ErrNotFound
	}
	return data, nil
}

func (g *gatedBlob) List(ns string) ([]string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var keys []string
	for k := range g.m {
		if rest, ok := strings.CutPrefix(k, ns+"/"); ok {
			keys = append(keys, rest)
		}
	}
	return keys, nil
}

func (g *gatedBlob) Close() error { return nil }

// TestShutdownFlushesPendingStoreCommits pins the drain ordering: Shutdown
// must flush the store, so commits still in flight or queued at SIGTERM
// survive even if the process dies (Crash) immediately after the drain
// returns.
func TestShutdownFlushesPendingStoreCommits(t *testing.T) {
	dir := t.TempDir()
	// The gate holds the marker's flush open at its blob write and the
	// journal record queues behind it: only the Shutdown barrier can wait for
	// both to become durable.
	blob := newGatedBlob()
	st, err := store.Open(store.Options{Dir: dir, Blob: blob})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: st})

	data := []byte("pending-at-sigterm")
	sum := sha256.Sum256(data)
	key := hex.EncodeToString(sum[:])
	st.CommitAsync(store.Commit{Puts: []store.Put{{NS: store.NSPart, Key: key, Data: data}}})
	<-blob.parked
	st.CommitAsync(store.Commit{Jobs: []store.JobRecord{{Job: "queued-at-sigterm", State: store.JobDone, ResultKey: key}}})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(ctx) }()
	select {
	case err := <-drained:
		t.Fatalf("shutdown returned (%v) while a store flush was still open", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(blob.gate)
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st.Crash() // process dies right after the drain; no Close, no extra sync

	st2, err := store.Open(store.Options{Dir: dir, Blob: blob})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, ok := st2.Get(store.NSPart, key)
	if !ok {
		t.Fatalf("commit pending at shutdown was lost; drain did not flush the batcher")
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("flushed blob corrupt after reopen")
	}
	if stats := st2.Stats(); stats.ProvEntries != 1 {
		t.Fatalf("ProvEntries = %d, want 1", stats.ProvEntries)
	}
	if r := st2.JobReplays(); len(r) != 1 || r[0].ID != "queued-at-sigterm" || r[0].State != store.JobDone {
		t.Fatalf("journal record queued at shutdown was lost: replays %+v", r)
	}
}

// TestReadyzEndpoint covers the three readiness states: ready (with and
// without a store), starting (journal replay not finished), and draining.
func TestReadyzEndpoint(t *testing.T) {
	getReadyz := func(t *testing.T, url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	t.Run("no store", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1})
		code, body := getReadyz(t, ts.URL)
		if code != http.StatusOK || !strings.Contains(body, `"store":"none"`) {
			t.Fatalf("readyz = %d %s, want 200 with store none", code, body)
		}
		// Replay still in progress: not ready yet.
		s.ready.Store(false)
		code, body = getReadyz(t, ts.URL)
		if code != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
			t.Fatalf("readyz while starting = %d %s, want 503 starting", code, body)
		}
		s.ready.Store(true)
	})

	t.Run("with store and draining", func(t *testing.T) {
		st, err := store.Open(store.Options{}) // in-memory backend
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		s, ts := newTestServer(t, Config{Workers: 1, Store: st})
		code, body := getReadyz(t, ts.URL)
		if code != http.StatusOK || !strings.Contains(body, `"store":"open"`) {
			t.Fatalf("readyz = %d %s, want 200 with store open", code, body)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		code, body = getReadyz(t, ts.URL)
		if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
			t.Fatalf("readyz while draining = %d %s, want 503 draining", code, body)
		}
	})
}

// TestRepartWarmStartFromStoreAfterRestart proves the parts LRU is a true
// read-through cache: a part_hash computed before a restart warm-starts a
// repartition on the new process, whose in-memory tier starts empty.
func TestRepartWarmStartFromStoreAfterRestart(t *testing.T) {
	dir := t.TempDir()
	st1 := openDiskStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	ts1 := httptest.NewServer(s1.Handler())

	resp, body := postJSON(t, ts1.URL, smallReq(31))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition: status %d body %s", resp.StatusCode, body)
	}
	var pr PartitionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.PartHash == "" {
		t.Fatalf("partition response has no part_hash")
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openDiskStore(t, dir)
	defer st2.Close()
	s2 := New(Config{Workers: 1, Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Shutdown(context.Background())

	req := fmt.Sprintf(`{"mesh":"CYLINDER","scale":0.002,"k":4,"strategy":"MC_TL","options":{"seed":32},"parent_hash":%q}`, pr.PartHash)
	r2, err := http.Post(ts2.URL+"/v1/repartition", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("repartition after restart: status %d body %s", r2.StatusCode, body2)
	}
	var rr RepartitionResponse
	if err := json.Unmarshal(body2, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Part) == 0 {
		t.Fatalf("repartition response has no assignment")
	}

	// The warm start was a store read, and the store metrics are exposed.
	m := fetchMetrics(t, ts2.URL)
	if got := metricValue(t, m, "tempartd_store_read_hits_total"); got == "" || got == "0" {
		t.Fatalf("tempartd_store_read_hits_total = %q, want >= 1\nmetrics:\n%s", got, m)
	}
	if !strings.Contains(m, "tempartd_store_puts_total") {
		t.Fatalf("store metrics missing from /metrics:\n%s", m)
	}
}
