// Command tempartd serves the tempart partitioner over HTTP: partition
// requests (named generator meshes or uploaded TMSH files) run on a bounded
// worker pool behind a FIFO admission queue, identical in-flight requests
// are deduplicated, and results are served from a content-addressed LRU
// cache. SIGINT/SIGTERM drain in-flight jobs before exit.
//
// With -data-dir the daemon is durable and restart-safe: uploaded meshes and
// computed results persist to a content-addressed blob store with a
// hash-chained provenance log (batched fsyncs), async jobs journal their
// lifecycle and resume after a restart over the same directory, and
// -verify walks the chain offline, recomputing every hash.
//
// Example:
//
//	tempartd -addr :8080 -data-dir /var/lib/tempartd &
//	curl -s localhost:8080/v1/partition -d '{"mesh":"CYLINDER","scale":0.01,"k":16,"strategy":"MC_TL"}'
//	curl -s localhost:8080/metrics | grep tempartd_store
//	tempartd -data-dir /var/lib/tempartd -verify
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on DefaultServeMux; served only on -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tempart/internal/cluster"
	"tempart/internal/obs"
	"tempart/internal/server"
	"tempart/internal/store"
)

// parsePeers decodes the -peers membership list: "id=url,id=url,...". The
// list must name every fleet member, this node included (its own URL may be
// left empty: "n1=,n2=http://b:8080" on node n1).
func parsePeers(spec string) ([]cluster.Node, error) {
	var nodes []cluster.Node
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("peer %q: want id=url", part)
		}
		nodes = append(nodes, cluster.Node{ID: strings.TrimSpace(id), URL: strings.TrimSpace(url)})
	}
	return nodes, nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		debugAddr    = flag.String("debug-addr", "", "when set, serve net/http/pprof under /debug/pprof/ on this address")
		workers      = flag.Int("workers", 0, "partition worker pool size (0 = GOMAXPROCS)")
		parallel     = flag.Int("parallel", 0, "per-request partitioner parallelism cap (0 = GOMAXPROCS/workers)")
		queueDepth   = flag.Int("queue", 64, "admission queue depth (overflow answers 429)")
		cacheMB      = flag.Int64("cache-mb", 256, "result cache budget in MiB")
		maxBodyMB    = flag.Int64("max-body-mb", 64, "maximum request body (mesh upload) in MiB")
		timeout      = flag.Duration("timeout", 5*time.Minute, "default per-job execution deadline")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		accessLog    = flag.Bool("access-log", true, "emit one structured log line per request")
		dataDir      = flag.String("data-dir", "", "durable store directory (empty = in-memory only, no persistence)")
		verify       = flag.Bool("verify", false, "verify the -data-dir provenance chain and blob digests, print a report, and exit (non-zero on corruption)")
		nodeID       = flag.String("node-id", "", "this daemon's fleet identity; requires -peers and must appear in it")
		peersSpec    = flag.String("peers", "", `static fleet membership as "id=url,id=url,..." including this node (same list on every member); enables cluster mode`)
		fanoutCells  = flag.Int("fanout-min-cells", 0, "minimum mesh cells before a request is fanned out across the fleet (0 = default 65536)")
		hedge        = flag.Duration("cluster-hedge", 0, "race a local recompute against a peer subtree slower than this (0 = only after the peer fails)")
		traceSample  = flag.Float64("trace-sample", 0, "flight-recorder head-sampling rate in [0,1]: fraction of fresh jobs traced into /v1/traces (0 = only ?debug=trace requests)")
		traceRing    = flag.Int("trace-ring", 64, "completed request traces the flight recorder retains (plus the slowest, pinned)")
		version      = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("tempartd"))
		return
	}
	if *verify {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "tempartd: -verify requires -data-dir")
			os.Exit(2)
		}
		rep, err := store.VerifyDir(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tempartd: verify:", err)
			os.Exit(2)
		}
		fmt.Println(rep)
		for _, p := range rep.Problems {
			fmt.Println("  problem:", p)
		}
		if !rep.OK() {
			os.Exit(1)
		}
		return
	}

	var cl *cluster.Cluster
	if *peersSpec != "" || *nodeID != "" {
		if *peersSpec == "" || *nodeID == "" {
			fmt.Fprintln(os.Stderr, "tempartd: cluster mode needs both -node-id and -peers")
			os.Exit(2)
		}
		nodes, err := parsePeers(*peersSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tempartd: -peers:", err)
			os.Exit(2)
		}
		cl, err = cluster.New(cluster.Options{
			NodeID:         *nodeID,
			Peers:          nodes,
			FanoutMinCells: *fanoutCells,
			HedgeDelay:     *hedge,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tempartd: cluster:", err)
			os.Exit(2)
		}
		log.Printf("tempartd: fleet member %s of %d nodes", *nodeID, len(nodes))
	}

	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *dataDir, NodeID: *nodeID})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tempartd: opening store:", err)
			os.Exit(1)
		}
		stats := st.Stats()
		log.Printf("tempartd: store open at %s (%d provenance entries, %d jobs replayed, %d to resume)",
			*dataDir, stats.ProvEntries, stats.JobsRecovered, stats.JobsPending)
	}

	var access *slog.Logger
	if *accessLog {
		access = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	srv := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CacheBytes:      *cacheMB << 20,
		MaxBodyBytes:    *maxBodyMB << 20,
		DefaultTimeout:  *timeout,
		MaxParallelism:  *parallel,
		AccessLog:       access,
		Store:           st,
		NodeID:          *nodeID,
		Cluster:         cl,
		TraceSampleRate: *traceSample,
		TraceRingSize:   *traceRing,
	})
	if *debugAddr != "" {
		go func() {
			log.Printf("tempartd: pprof on http://%s/debug/pprof/", *debugAddr)
			dbg := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux,
				ReadHeaderTimeout: 10 * time.Second}
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("tempartd: debug server: %v", err)
			}
		}()
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("tempartd: listening on %s (%s)", *addr, srv)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	exit := 0
	select {
	case sig := <-sigc:
		log.Printf("tempartd: %v received, draining (max %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Mark the pool draining first so /healthz answers 503 and new jobs
		// are refused while open connections wind down, then close the
		// listener and wait for both. Shutdown flushes the store's batcher
		// after the workers drain, so everything acknowledged is fsynced.
		drained := make(chan error, 1)
		go func() { drained <- srv.Shutdown(ctx) }()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("tempartd: http shutdown: %v", err)
		}
		if err := <-drained; err != nil {
			log.Printf("tempartd: drain incomplete: %v", err)
			exit = 1
		} else {
			log.Printf("tempartd: drained cleanly")
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "tempartd:", err)
			exit = 1
		}
	}
	if st != nil {
		// Final close: flush whatever remains and fsync both logs before the
		// process exits.
		if err := st.Close(); err != nil {
			log.Printf("tempartd: closing store: %v", err)
			exit = 1
		}
	}
	os.Exit(exit)
}
