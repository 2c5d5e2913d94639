package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tempart/internal/cluster"
	"tempart/internal/store"
)

// fleetReq is the standard fleet workload: big enough (12k+ cells at scale
// 0.002) that coordinator fan-out has real subtrees, small enough to stay
// sub-second per compute.
func fleetReq(seed int64, parallelism int) string {
	if parallelism > 0 {
		return fmt.Sprintf(`{"mesh":"CYLINDER","scale":0.002,"k":8,"strategy":"MC_TL","options":{"seed":%d,"parallelism":%d}}`,
			seed, parallelism)
	}
	return fmt.Sprintf(`{"mesh":"CYLINDER","scale":0.002,"k":8,"strategy":"MC_TL","options":{"seed":%d}}`, seed)
}

type fleet struct {
	t    *testing.T
	srvs []*Server
	tss  []*httptest.Server
	ids  []string
}

// newFleet boots n in-process daemons wired into one static-membership
// cluster. httptest must allocate the URLs before the servers exist (the
// membership list needs them), so each listener serves through an
// atomic.Value that is populated once its Server is constructed.
func newFleet(t *testing.T, n int, copt func(o *cluster.Options), scfg func(i int, c *Config)) *fleet {
	t.Helper()
	handlers := make([]atomic.Value, n)
	f := &fleet{t: t}
	peers := make([]cluster.Node, n)
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h, ok := handlers[i].Load().(http.Handler); ok {
				h.ServeHTTP(w, r)
				return
			}
			http.Error(w, "fleet member starting", http.StatusServiceUnavailable)
		}))
		f.tss = append(f.tss, ts)
		peers[i] = cluster.Node{ID: fmt.Sprintf("n%d", i+1), URL: ts.URL}
		f.ids = append(f.ids, peers[i].ID)
	}
	for i := 0; i < n; i++ {
		opts := cluster.Options{
			NodeID:           peers[i].ID,
			Peers:            peers,
			FanoutMinCells:   1, // every fleetReq is fan-out eligible
			BreakerThreshold: 3,
			BreakerCooldown:  200 * time.Millisecond,
			RetryAttempts:    1, // deterministic failure counting in tests
			RetryBackoff:     5 * time.Millisecond,
		}
		if copt != nil {
			copt(&opts)
		}
		cl, err := cluster.New(opts)
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", peers[i].ID, err)
		}
		cfg := Config{Workers: 4, MaxParallelism: 8, NodeID: peers[i].ID, Cluster: cl}
		if scfg != nil {
			scfg(i, &cfg)
		}
		s := New(cfg)
		f.srvs = append(f.srvs, s)
		handlers[i].Store(s.Handler())
	}
	t.Cleanup(func() {
		for _, ts := range f.tss {
			ts.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, s := range f.srvs {
			_ = s.Shutdown(ctx)
		}
	})
	return f
}

// ownerIndex computes which member owns a request body, exactly as the
// daemons will: decode, content-address, consult the ring.
func (f *fleet) ownerIndex(body string) int {
	f.t.Helper()
	req, err := decodeRequest(kindPartition, "application/json", nil, []byte(body))
	if err != nil {
		f.t.Fatalf("decoding request: %v", err)
	}
	owner := f.srvs[0].cluster.Owner([32]byte(req.key()))
	for i, id := range f.ids {
		if id == owner.ID {
			return i
		}
	}
	f.t.Fatalf("owner %q not in fleet %v", owner.ID, f.ids)
	return -1
}

// seedsOwnedBy scans seeds until it finds count requests owned by member idx.
func (f *fleet) seedsOwnedBy(idx, count int) []int64 {
	f.t.Helper()
	var seeds []int64
	for seed := int64(1); seed < 4000 && len(seeds) < count; seed++ {
		if f.ownerIndex(fleetReq(seed, 0)) == idx {
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) < count {
		f.t.Fatalf("found only %d/%d seeds owned by %s", len(seeds), count, f.ids[idx])
	}
	return seeds
}

func soloServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 2, MaxParallelism: 8})
	return ts
}

// postForwarded sends a partition request carrying the hop-guard header, as
// if another member had already forwarded it here.
func postForwarded(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/partition", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HeaderForwarded, "test")
	resp, err := http.DefaultClient.Do(req)
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

// TestClusterForwardByteIdenticalAndReplicatedCache: a request sent to a
// non-owner is forwarded to the owner shard, the relayed payload is
// byte-identical to a single-node daemon's, and the non-owner keeps a local
// replica so the next identical request never leaves the node.
func TestClusterForwardByteIdenticalAndReplicatedCache(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	solo := soloServer(t)
	const owner, other = 0, 1
	body := fleetReq(f.seedsOwnedBy(owner, 1)[0], 0)

	_, want := postJSON(t, solo.URL, body)
	resp, got := postJSON(t, f.tss[other].URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: status %d, body %s", resp.StatusCode, got)
	}
	if h := resp.Header.Get("X-Tempartd-Cluster"); h != "forwarded;peer="+f.ids[owner] {
		t.Fatalf("X-Tempartd-Cluster = %q, want forwarded;peer=%s", h, f.ids[owner])
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("forwarded response differs from single-node response")
	}

	// The owner computed; the non-owner never ran a partition job.
	if m := fetchMetrics(t, f.tss[owner].URL); !strings.Contains(m, `tempartd_partition_runs_total{strategy="MC_TL"} 1`) {
		t.Fatalf("owner should have exactly one run:\n%s", m)
	}
	otherM := fetchMetrics(t, f.tss[other].URL)
	if strings.Contains(otherM, `tempartd_partition_runs_total{strategy="MC_TL"}`) {
		t.Fatalf("non-owner computed a forwarded request:\n%s", otherM)
	}
	if !strings.Contains(otherM, fmt.Sprintf(`tempartd_cluster_forwards_total{peer=%q,outcome="relayed"} 1`, f.ids[owner])) {
		t.Fatalf("forward not counted:\n%s", otherM)
	}

	// Peer-replicated caching: the same request on the non-owner is now a
	// local hit — no second hop.
	resp2, got2 := postJSON(t, f.tss[other].URL, body)
	if h := resp2.Header.Get("X-Tempartd-Cache"); h != "hit" {
		t.Fatalf("replicated request cache header = %q, want hit", h)
	}
	if resp2.Header.Get("X-Tempartd-Cluster") != "" {
		t.Fatalf("replicated hit should not be forwarded again")
	}
	if !bytes.Equal(got2, want) {
		t.Fatalf("replicated cache returned different bytes")
	}
}

// TestClusterFanoutByteIdenticalAcrossParallelism is the core determinism
// pin: an owner in coordinator mode (subtrees fanned across a 3-node fleet)
// returns exactly the bytes a single-node daemon computes, at every client
// parallelism.
func TestClusterFanoutByteIdenticalAcrossParallelism(t *testing.T) {
	f := newFleet(t, 3, nil, nil)
	solo := soloServer(t)
	used := map[int64]bool{}
	fanouts := 0
	for _, par := range []int{1, 2, 8} {
		var body string
		for seed := int64(100); ; seed++ {
			if used[seed] {
				continue
			}
			body = fleetReq(seed, par)
			if f.ownerIndex(body) == 0 {
				used[seed] = true
				break
			}
		}
		_, want := postJSON(t, solo.URL, body)
		resp, got := postJSON(t, f.tss[0].URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("parallelism %d: status %d, body %s", par, resp.StatusCode, got)
		}
		if resp.Header.Get("X-Tempartd-Cluster") != "" {
			t.Fatalf("parallelism %d: owner-side request should not be forwarded", par)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("parallelism %d: fan-out response differs from single-node response", par)
		}
		fanouts++
	}

	m0 := fetchMetrics(t, f.tss[0].URL)
	if got := metricValue(t, m0, "tempartd_cluster_fanouts_total"); got != fmt.Sprint(fanouts) {
		t.Fatalf("fanouts_total = %q, want %d\n%s", got, fanouts, m0)
	}
	served := 0
	for i := 1; i < 3; i++ {
		if v := metricValue(t, fetchMetrics(t, f.tss[i].URL), "tempartd_cluster_subtrees_served_total"); v != "" && v != "0" {
			served++
		}
	}
	if served == 0 {
		t.Fatalf("no peer served a subtree — fan-out never left the coordinator")
	}
}

// TestClusterPeerDownAtDialFallsBack: with a member dead before any
// connection exists, requests it owns are computed locally (degraded but
// correct, still byte-identical), the client never sees an error, and the
// survivor's breaker for the dead peer opens.
func TestClusterPeerDownAtDialFallsBack(t *testing.T) {
	// A long cooldown keeps the breaker firmly open (not probe-ready) while
	// the test inspects it.
	f := newFleet(t, 2, func(o *cluster.Options) { o.BreakerCooldown = time.Hour }, nil)
	solo := soloServer(t)
	const live, dead = 0, 1
	seeds := f.seedsOwnedBy(dead, 3)
	f.tss[dead].Close()

	for _, seed := range seeds {
		body := fleetReq(seed, 0)
		_, want := postJSON(t, solo.URL, body)
		resp, got := postJSON(t, f.tss[live].URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d with peer down, body %s", seed, resp.StatusCode, got)
		}
		if resp.Header.Get("X-Tempartd-Cluster") != "" {
			t.Fatalf("seed %d: dead owner cannot have answered", seed)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: local fallback differs from single-node response", seed)
		}
	}

	resp, err := http.Get(f.tss[live].URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	if st.Self != f.ids[live] || len(st.Peers) != 1 || st.Peers[0].ID != f.ids[dead] {
		t.Fatalf("unexpected status shape: %+v", st)
	}
	if st.Peers[0].Breaker != "open" || st.Peers[0].Available || st.HealthyPeers != 0 {
		t.Fatalf("breaker for dead peer should be open: %+v", st.Peers[0])
	}
	m := fetchMetrics(t, f.tss[live].URL)
	if !strings.Contains(m, fmt.Sprintf("tempartd_cluster_breaker_state{peer=%q} 1", f.ids[dead])) {
		t.Fatalf("breaker_state gauge should read open (1):\n%s", m)
	}
	if !strings.Contains(m, fmt.Sprintf(`tempartd_cluster_peer_errors_total{peer=%q`, f.ids[dead])) {
		t.Fatalf("peer errors should be counted:\n%s", m)
	}
}

// TestClusterPeerDiesMidSubtree: the peer accepts a fanned-out subtree and
// then its connections are killed while the work is in flight. The
// coordinator recomputes the subtree locally and the client still gets the
// byte-identical answer.
func TestClusterPeerDiesMidSubtree(t *testing.T) {
	entered := make(chan struct{})
	var once sync.Once
	f := newFleet(t, 2, nil, func(i int, c *Config) {
		if i != 1 {
			return
		}
		c.execGate = func(ctx context.Context, r *PartitionRequest) error {
			once.Do(func() { close(entered) })
			<-ctx.Done()
			return ctx.Err()
		}
	})
	solo := soloServer(t)
	body := fleetReq(f.seedsOwnedBy(0, 1)[0], 0)
	go func() {
		<-entered
		f.tss[1].CloseClientConnections()
	}()

	_, want := postJSON(t, solo.URL, body)
	resp, got := postJSON(t, f.tss[0].URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after peer died mid-subtree, body %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recomputed response differs from single-node response")
	}
	m := fetchMetrics(t, f.tss[0].URL)
	if got := metricValue(t, m, "tempartd_cluster_local_fallbacks_total"); got != "1" {
		t.Fatalf("local_fallbacks_total = %q, want 1\n%s", got, m)
	}
}

// TestClusterHopGuard: a request that already carries the forwarded header
// is never forwarded again, even when this node does not own it — it probes
// the owner's cache (miss) and computes locally.
func TestClusterHopGuard(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	solo := soloServer(t)
	const owner, other = 0, 1
	body := fleetReq(f.seedsOwnedBy(owner, 1)[0], 0)

	_, want := postJSON(t, solo.URL, body)
	resp, got := postForwarded(t, f.tss[other].URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Tempartd-Cluster") != "" {
		t.Fatalf("hop guard violated: request forwarded twice")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("hop-guarded local compute differs from single-node response")
	}
	m := fetchMetrics(t, f.tss[other].URL)
	if !strings.Contains(m, `tempartd_partition_runs_total{strategy="MC_TL"} 1`) {
		t.Fatalf("non-owner should have computed locally:\n%s", m)
	}
	if !strings.Contains(m, fmt.Sprintf(`tempartd_cluster_probes_total{peer=%q,outcome="miss"} 1`, f.ids[owner])) {
		t.Fatalf("owner cache probe not counted:\n%s", m)
	}
}

// TestClusterOwnerCacheProbeHit: when the owner already holds the result, a
// hop-guarded arrival on a non-owner is served straight from the owner's
// cache without computing anything.
func TestClusterOwnerCacheProbeHit(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	const owner, other = 0, 1
	body := fleetReq(f.seedsOwnedBy(owner, 1)[0], 0)

	_, want := postJSON(t, f.tss[owner].URL, body) // warm the owner
	resp, got := postForwarded(t, f.tss[other].URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, got)
	}
	if h := resp.Header.Get("X-Tempartd-Cache"); h != "peer" {
		t.Fatalf("X-Tempartd-Cache = %q, want peer", h)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer cache probe returned different bytes")
	}
	if m := fetchMetrics(t, f.tss[other].URL); strings.Contains(m, `tempartd_partition_runs_total{strategy="MC_TL"}`) {
		t.Fatalf("non-owner computed despite owner cache hit:\n%s", m)
	}
}

// TestClusterCrossNodeSingleflight: identical concurrent requests hitting
// different members dedup to ONE compute fleet-wide — non-owners forward to
// the owner, where all of them join the same singleflight.
func TestClusterCrossNodeSingleflight(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	f := newFleet(t, 2, nil, func(i int, c *Config) {
		if i != 0 {
			return
		}
		c.execGate = func(ctx context.Context, r *PartitionRequest) error {
			entered <- struct{}{}
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	})
	body := fleetReq(f.seedsOwnedBy(0, 1)[0], 0)

	const clients = 6
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(f.tss[i%2].URL+"/v1/partition", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	<-entered                          // one job reached the worker
	time.Sleep(100 * time.Millisecond) // let the rest join its flight
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d got different bytes than client 0", i)
		}
	}
	if m := fetchMetrics(t, f.tss[0].URL); !strings.Contains(m, `tempartd_partition_runs_total{strategy="MC_TL"} 1`) {
		t.Fatalf("fleet should have computed exactly once:\n%s", m)
	}
	if m := fetchMetrics(t, f.tss[1].URL); strings.Contains(m, `tempartd_partition_runs_total{strategy="MC_TL"}`) {
		t.Fatalf("non-owner computed a deduped request:\n%s", m)
	}
}

// TestClusterHedgedLocalWin: with hedging on and a pathologically slow peer,
// the coordinator's local recompute wins the race and the hedged win is
// counted; the bytes are identical either way, so the client cannot tell.
func TestClusterHedgedLocalWin(t *testing.T) {
	f := newFleet(t, 2,
		func(o *cluster.Options) { o.HedgeDelay = time.Millisecond },
		func(i int, c *Config) {
			if i != 1 {
				return
			}
			c.execGate = func(ctx context.Context, r *PartitionRequest) error {
				select {
				case <-time.After(2 * time.Second):
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		})
	solo := soloServer(t)
	body := fleetReq(f.seedsOwnedBy(0, 1)[0], 0)

	_, want := postJSON(t, solo.URL, body)
	resp, got := postJSON(t, f.tss[0].URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("hedged response differs from single-node response")
	}
	m := fetchMetrics(t, f.tss[0].URL)
	if !strings.Contains(m, `tempartd_cluster_hedged_wins_total{winner="local"} 1`) {
		t.Fatalf("local hedge win not counted:\n%s", m)
	}
}

// TestClusterProvenanceNodeIDs: a fanned-out request leaves a provenance
// trail on every node that touched it — the coordinator's result under its
// own id, each remote subtree in the executing peer's chain under the peer's
// id and marked as a subtree.
func TestClusterProvenanceNodeIDs(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	stores := make([]*store.Store, 2)
	for i := range stores {
		st, err := store.Open(store.Options{Dir: dirs[i], NodeID: fmt.Sprintf("n%d", i+1)})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	t.Cleanup(func() { // registered before newFleet: runs after server shutdown
		for _, st := range stores {
			_ = st.Close()
		}
	})
	f := newFleet(t, 2, nil, func(i int, c *Config) { c.Store = stores[i] })
	body := fleetReq(f.seedsOwnedBy(0, 1)[0], 0)

	resp, got := postJSON(t, f.tss[0].URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, got)
	}
	ctx := context.Background()
	for _, st := range stores {
		if err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}

	coordLog, err := os.ReadFile(filepath.Join(dirs[0], "prov.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(coordLog), `"node":"n1"`) {
		t.Fatalf("coordinator provenance not stamped with its node id:\n%s", coordLog)
	}
	peerLog, err := os.ReadFile(filepath.Join(dirs[1], "prov.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(peerLog), `"node":"n2"`) {
		t.Fatalf("peer provenance not stamped with its node id:\n%s", peerLog)
	}
	if !strings.Contains(string(peerLog), `"kind":"subtree"`) {
		t.Fatalf("peer provenance should record the subtree RPC:\n%s", peerLog)
	}
}

// TestClusterEndpointsGating: cluster endpoints exist on fleet members with
// sane payloads, and do not exist at all on a single-node daemon.
func TestClusterEndpointsGating(t *testing.T) {
	f := newFleet(t, 2, nil, nil)
	resp, err := http.Get(f.tss[0].URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Self != "n1" || len(st.Nodes) != 2 || st.HealthyPeers != 1 || st.Peers[0].Breaker != "closed" {
		t.Fatalf("unexpected fleet status: %+v", st)
	}
	if m := fetchMetrics(t, f.tss[0].URL); !strings.Contains(m, "tempartd_cluster_peers 2") {
		t.Fatalf("cluster series missing from /metrics:\n%s", m)
	}

	_, solo := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/cluster/status", "/v1/internal/cache/" + strings.Repeat("0", 64)} {
		resp, err := http.Get(solo.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on single-node daemon: status %d, want 404", path, resp.StatusCode)
		}
	}
}
