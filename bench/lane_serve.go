package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/server"
	"tempart/internal/store"
)

// serveCfg sizes the daemon lane: tempartd in process behind a loopback
// listener with a disk store, a hot set of partition requests preloaded, and
// two closed-loop callers replaying a seeded mix of repeats and never-seen
// keys.
type serveCfg struct {
	Mesh  string
	Scale float64
	K     int
	// Hot is the hot-set size. The memory cache is sized to about half of
	// its response bytes, so repeats land on both the memory and the store
	// tier.
	Hot int
	// PerCaller is how many requests each of the two callers sends.
	PerCaller int
	// MissPermille is the share of never-seen keys, in thousandths.
	MissPermille int
	// InProcess keeps everything inside the process: the callers invoke the
	// daemon's handler directly instead of going through the loopback
	// listener, and the store keeps its blobs in memory instead of on disk.
	// The probes do: a 50 µs socket round trip moves by a third with the state
	// of the virtual machine and an fsync takes anything from 5 to 100 ms,
	// while the handler and the batcher's 20 ms timer move like any other code.
	InProcess bool
}

const (
	callers = 2 // tempartd's clients wait for each reply: one closed loop per core
	zipfS   = 1.1
	miss    = -1
)

// requestSchedule is one caller's request sequence in one phase (stream
// numbers both): a hot-set index drawn from Zipf(1.1), or miss for a key
// nobody has asked for before. Exactly n·missPermille/1000 entries are
// misses, at seeded positions.
func requestSchedule(seed int64, stream, n, hot, missPermille int) []int {
	rng := rand.New(rand.NewSource(subSeed(seed, streamSchedule, stream)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(hot-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(zipf.Uint64())
	}
	for _, i := range rng.Perm(n)[:n*missPermille/1000] {
		out[i] = miss
	}
	return out
}

type serveLane struct {
	cfg     serveCfg
	dir     string
	st      *store.Store
	srv     *server.Server
	handler http.Handler
	ts      *httptest.Server // nil when the callers are in process
	hotSeed []int64
	hotBody [][]byte // request bodies of the hot set
	hotHash []string // part_hash of each hot key's first (computed) reply
	hotWant [][]byte // the same as the JSON field every later reply must carry
}

func (l *serveLane) name() string { return "serve" }

func (l *serveLane) body(seed int64, extra string) []byte {
	return []byte(fmt.Sprintf(`{"mesh":%q,"scale":%g,"k":%d,"strategy":"MC_TL","options":{"seed":%d}%s}`,
		l.cfg.Mesh, l.cfg.Scale, l.cfg.K, seed, extra))
}

// handlerTransport answers a request by calling the handler on the caller's
// own goroutine: the in-process stand-in for a connection.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// caller is one keep-alive connection's worth of client.
type caller struct {
	client *http.Client
	url    string
	buf    bytes.Buffer
}

func (l *serveLane) newCaller() *caller {
	if l.cfg.InProcess {
		return &caller{client: &http.Client{Transport: handlerTransport{l.handler}}, url: "http://tempartd"}
	}
	return &caller{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, url: l.ts.URL}
}

func (c *caller) close() { c.client.CloseIdleConnections() }

// do sends one request and reads the whole reply into c.buf.
func (c *caller) do(method, path string, body []byte) (status int, tier string, err error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Tempartd-Cache"), err
}

func hashField(hash string) []byte { return []byte(`"part_hash":"` + hash + `"`) }

// setup starts the daemon over a fresh disk store and preloads the hot set.
func (l *serveLane) setup(e *env) error {
	cfg := l.cfg
	l.hotSeed, l.hotBody, l.hotHash, l.hotWant = nil, nil, make([]string, cfg.Hot), make([][]byte, cfg.Hot)
	for i := 0; i < cfg.Hot; i++ {
		l.hotSeed = append(l.hotSeed, subSeed(e.seed, streamHot, i))
		l.hotBody = append(l.hotBody, l.body(l.hotSeed[i], ""))
	}

	// One reply's size, to budget the memory cache: a throw-away daemon
	// answers the first hot key through its handler, no socket.
	probe := server.New(server.Config{Workers: 1, MaxParallelism: 1})
	rec := httptest.NewRecorder()
	probe.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/partition", bytes.NewReader(l.hotBody[0])))
	if err := probe.Shutdown(e.ctx); err != nil {
		return err
	}
	if rec.Code != http.StatusOK {
		return fmt.Errorf("sizing request answered %d: %s", rec.Code, rec.Body.String())
	}

	var err error
	if !cfg.InProcess {
		if l.dir, err = os.MkdirTemp(e.workDir, "store-"); err != nil {
			return err
		}
	}
	_, sp := enter(e.ctx, "store")
	l.st, err = store.Open(store.Options{Dir: l.dir}) // an empty Dir is the in-memory store
	sp.End()
	if err != nil {
		return err
	}
	l.srv = server.New(server.Config{Workers: callers, MaxParallelism: 1, Store: l.st,
		CacheBytes: int64(rec.Body.Len()) * int64(cfg.Hot) / 2})
	l.handler = l.srv.Handler()
	if !cfg.InProcess {
		l.ts = httptest.NewServer(l.handler)
	}

	// Four loaders keep both workers busy while commits wait for their batch.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := l.newCaller()
			defer c.close()
			for i := w; i < cfg.Hot; i += len(errs) {
				_, sp := enter(e.ctx, "server")
				status, _, err := c.do("POST", "/v1/partition", l.hotBody[i])
				sp.End()
				var reply struct {
					PartHash string `json:"part_hash"`
				}
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("preload %d answered %d", i, status)
				}
				if err == nil {
					err = json.Unmarshal(c.buf.Bytes(), &reply)
				}
				if err != nil {
					errs[w] = err
					return
				}
				l.hotHash[i], l.hotWant[i] = reply.PartHash, hashField(reply.PartHash)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (l *serveLane) close() {
	if l.ts != nil {
		l.ts.Close()
	}
	if l.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = l.srv.Shutdown(ctx) // a drain error only means jobs were cancelled; the store is closed next either way
		cancel()
	}
	if l.st != nil {
		_ = l.st.Close() // the directory is removed below; nothing in it is needed again
	}
	if l.dir != "" {
		os.RemoveAll(l.dir)
	}
	*l = serveLane{cfg: l.cfg}
}

// sample is one request of the mixed phase.
type sample struct {
	latency float64
	tier    string
	key     int // hot index or miss
	ok      bool
	status  int
}

// replay sends entries [lo, hi) of one caller's schedule and returns what
// came back. A miss asks for a seed no other request of the run uses (stream
// numbers the phase and the caller).
func (l *serveLane) replay(e *env, c *caller, stream int, schedule []int, lo, hi int) []sample {
	out := make([]sample, 0, hi-lo)
	for i := lo; i < hi; i++ {
		key := schedule[i]
		var body []byte
		if key == miss {
			body = l.body(subSeed(e.seed, streamMiss, stream<<24+i), "")
		} else {
			body = l.hotBody[key]
		}
		_, sp := enter(e.ctx, "server")
		t0 := time.Now()
		status, tier, err := c.do("POST", "/v1/partition", body)
		lat := time.Since(t0).Seconds()
		sp.End()
		ok := err == nil && status == http.StatusOK
		if ok && key == miss {
			ok = tier == "miss" && bytes.Contains(c.buf.Bytes(), []byte(`"part_hash":"`))
		} else if ok {
			ok = (tier == "hit" || tier == "store") && bytes.Contains(c.buf.Bytes(), l.hotWant[key])
		}
		out = append(out, sample{lat, tier, key, ok, status})
	}
	return out
}

// mixed is one phase of the closed loop: every caller has its own seeded
// schedule and its own connection.
type mixed struct {
	phase     int
	callers   []*caller
	schedules [][]int
}

func (l *serveLane) newMixed(e *env, phase, perCaller int) *mixed {
	m := &mixed{phase: phase}
	for i := 0; i < callers; i++ {
		m.callers = append(m.callers, l.newCaller())
		m.schedules = append(m.schedules, requestSchedule(e.seed, phase*callers+i, perCaller, l.cfg.Hot, l.cfg.MissPermille))
	}
	return m
}

func (m *mixed) close() {
	for _, c := range m.callers {
		c.close()
	}
}

// run sends entries [lo, hi) of every caller's schedule, the callers side by
// side, and returns the samples and the wall.
func (m *mixed) run(e *env, l *serveLane, lo, hi int) ([]sample, float64) {
	results := make([][]sample, len(m.callers))
	var wg sync.WaitGroup
	runtime.GC()
	t0 := time.Now()
	for i := range m.callers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = l.replay(e, m.callers[i], m.phase*callers+i, m.schedules[i], lo, hi)
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	var all []sample
	for _, r := range results {
		all = append(all, r...)
	}
	return all, wall
}

func (l *serveLane) measure(e *env) {
	cfg, rep := l.cfg, e.rep
	// Discarded warm-up: open the connections and take both code paths once.
	warm := l.newMixed(e, 0, min(50, cfg.PerCaller))
	warm.run(e, l, 0, len(warm.schedules[0]))
	warm.close()

	// The timed phase, a tenth at a time.
	timed := l.newMixed(e, 1, cfg.PerCaller)
	defer timed.close()
	var samples []sample
	var wall float64
	for i := 0; i < tenths; i++ {
		e.pause(float64(i) / tenths)
		got, w := timed.run(e, l, cfg.PerCaller*i/tenths, cfg.PerCaller*(i+1)/tenths)
		samples, wall = append(samples, got...), wall+w
	}
	var lat []float64
	byTier := map[string][]float64{}
	okCount, rejected := 0, 0
	bothTiers := miss // a hot key seen from memory and from the store
	seen := map[int]string{}
	for _, s := range samples {
		rep.gate(s.ok, "request for key %d answered %d from tier %q", s.key, s.status, s.tier)
		if s.ok {
			okCount++
		}
		if s.status == http.StatusTooManyRequests {
			rejected++
		}
		lat = append(lat, s.latency)
		byTier[s.tier] = append(byTier[s.tier], s.latency)
		if s.key != miss && s.ok {
			if prev, ok := seen[s.key]; ok && prev != s.tier {
				bothTiers = s.key
			}
			seen[s.key] = s.tier
		}
	}
	n := len(samples)
	rep.set("serve_rps", float64(n)/wall, n)
	rep.set("serve_p50_ms", 1e3*median(lat), n)
	rep.set("serve_p99_ms", 1e3*percentile(lat, 0.99), n)
	rep.set("serve_ok_share", float64(okCount)/float64(n), n)
	for _, tier := range []string{"hit", "store", "miss"} {
		rep.set("server."+tier+"_p50_ms", 1e3*medianOrZero(byTier[tier]), len(byTier[tier]))
		rep.set("server."+tier+"_share", float64(len(byTier[tier]))/float64(n), n)
	}
	rep.set("server.rejected_429", float64(rejected), n)
	rep.set("loadgen.clients", callers, 0)

	// A hot key must carry one part_hash whichever way it is answered: the
	// replies above were matched against the first (computed) reply; a direct
	// library call closes the triangle for a key that both tiers served.
	rep.gate(bothTiers != miss, "no hot key was answered from both the memory and the store tier")
	if bothTiers != miss {
		l.directHash(e, bothTiers)
	}
	if e.traced() {
		l.kernels(e)
	}
}

// directHash partitions hot key i with the library, as the daemon does, and
// gates on the content hash of the encoded result being the served one.
func (l *serveLane) directHash(e *env, i int) float64 {
	m, err := mesh.ByName(l.cfg.Mesh, l.cfg.Scale)
	if !e.rep.gateErr(err, "mesh.ByName") {
		return 0
	}
	c, sp := enter(e.ctx, "partition")
	t0 := time.Now()
	res, err := partition.PartitionMesh(c, m, l.cfg.K, partition.MCTL, partition.Options{Seed: l.hotSeed[i], Parallelism: 1})
	wall := time.Since(t0).Seconds()
	sp.End()
	if !e.rep.gateErr(err, "direct partition") {
		return 0
	}
	var enc bytes.Buffer
	if !e.rep.gateErr(res.Encode(&enc), "encode result") {
		return 0
	}
	digest := sha256.Sum256(enc.Bytes())
	got := hex.EncodeToString(digest[:])
	e.rep.gate(got == l.hotHash[i], "hot key %d: the library's part_hash is %s, the daemon's %s", i, got, l.hotHash[i])
	return wall
}

// kernels times the daemon's single paths and the store beneath it. Traced
// runs only.
func (l *serveLane) kernels(e *env) {
	rep := e.rep
	c := l.newCaller()
	defer c.close()
	post := func(path string, body []byte) float64 {
		_, sp := enter(e.ctx, "server")
		t0 := time.Now()
		status, _, err := c.do("POST", path, body)
		wall := time.Since(t0).Seconds()
		sp.End()
		rep.gate(err == nil && status == http.StatusOK, "%s answered %d (err %v): %.200s", path, status, err, c.buf.Bytes())
		return wall
	}

	// Hits only, closed loop on the hottest key: twelve slices, median rate.
	const slices, perSlice = 12, 250
	post("/v1/partition", l.hotBody[0]) // bring it into memory
	var rates []float64
	for s := 0; s < slices; s++ {
		t0 := time.Now()
		for i := 0; i < perSlice; i++ {
			post("/v1/partition", l.hotBody[0])
		}
		rates = append(rates, perSlice/time.Since(t0).Seconds())
	}
	rep.set("server.hit_rps", median(rates), slices*perSlice)

	// The same hit through the handler alone: no socket, no client.
	var handler []float64
	for i := 0; i < 200; i++ {
		w := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/partition", bytes.NewReader(l.hotBody[0]))
		t0 := time.Now()
		l.handler.ServeHTTP(w, req)
		handler = append(handler, time.Since(t0).Seconds())
		rep.gate(w.Code == http.StatusOK, "handler hit answered %d", w.Code)
	}
	rep.set("server.handler_hit_us", 1e6*median(handler), len(handler))

	var repartWalls, evalWalls, scrape, commit, get, small []float64
	for i := 0; i < 5; i++ {
		extra := fmt.Sprintf(`,"parent_hash":%q,"mode":"auto"`, l.hotHash[0])
		repartWalls = append(repartWalls, post("/v1/repartition", l.body(subSeed(e.seed, streamKernel, 2*i), extra)))
		evalWalls = append(evalWalls, post("/v1/partition", l.body(subSeed(e.seed, streamKernel, 2*i+1), `,"evaluate":{"procs":4,"workers":4}`)))
	}
	rep.set("server.repartition_ms", 1e3*median(repartWalls), len(repartWalls))
	rep.set("server.evaluate_ms", 1e3*median(evalWalls), len(evalWalls))
	for i := 0; i < 20; i++ {
		_, sp := enter(e.ctx, "server")
		t0 := time.Now()
		status, _, err := c.do("GET", "/metrics", nil)
		scrape = append(scrape, time.Since(t0).Seconds())
		sp.End()
		rep.gate(err == nil && status == http.StatusOK, "/metrics answered %d (err %v)", status, err)
	}
	rep.set("server.metrics_scrape_ms", 1e3*median(scrape), len(scrape))

	for i := 0; i < 10; i++ {
		data := []byte(fmt.Sprintf("bench blob %d of run %d", i, e.seed))
		sum := sha256.Sum256(data)
		_, sp := enter(e.ctx, "store")
		t0 := time.Now()
		err := l.st.Commit(e.ctx, store.Commit{Puts: []store.Put{{NS: store.NSMesh, Key: hex.EncodeToString(sum[:]), Data: data}}})
		commit = append(commit, time.Since(t0).Seconds())
		sp.End()
		rep.gateErr(err, "store.Commit")
		_, sp = enter(e.ctx, "store")
		t0 = time.Now()
		_, ok := l.st.Get(store.NSPart, l.hotHash[0])
		get = append(get, time.Since(t0).Seconds())
		sp.End()
		rep.gate(ok, "store.Get(part, %s) found nothing", l.hotHash[0])
	}
	rep.set("store.commit_ms", 1e3*median(commit), len(commit))
	rep.set("store.get_ms", 1e3*median(get), len(get))
	stats := l.st.Stats()
	rep.set("store.commits_per_flush", float64(stats.BatchedCommits)/float64(stats.BatchFlushes), int(stats.BatchFlushes))

	for i := 0; i < kernelCalls; i++ {
		runtime.GC()
		small = append(small, l.directHash(e, i%l.cfg.Hot))
	}
	rep.set("partition.small_mesh_ms", 1e3*median(small), len(small))
}
