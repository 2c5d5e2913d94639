package server

import (
	"tempart/internal/obs"
	"tempart/internal/store"
)

// latencyBuckets are the upper bounds (seconds) of the partition latency
// histogram. Partitions range from sub-millisecond (cache-sized toy meshes)
// to minutes (full-scale PPRIME_NOZZLE), so the buckets span five decades.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120}

// migrationBuckets are the upper bounds (bytes) of the repartition migration
// histogram: from a few cells (1 KiB) to a full-scale mesh (1 GiB).
var migrationBuckets = []float64{1 << 10, 1 << 14, 1 << 17, 1 << 20, 1 << 23, 1 << 26, 1 << 30}

// serverMetrics holds the handles of the daemon's counters and histograms;
// each family's HELP text in newServerMetrics says what it counts. Its
// registry renders /metrics: the server's families, then the store's, the
// cluster's, the traced-pipeline aggregate and the Go runtime snapshot.
// Gauges (queue depth, in-flight jobs, cache occupancy, store stats) are
// read from the server when the registry is written.
type serverMetrics struct {
	reg *obs.Registry

	requests, partRuns, repartRuns                                   *obs.Counter[int64]
	partTimes, repartTimes, httpTimes, migrationBytes, admissionWait *obs.Histogram
	cacheHits, cacheMisses, parentHits, parentMisses                 *obs.Counter[int64]
	queueRejected, jobsCancelled, evalRuns, evalGraphHits            *obs.Counter[int64]
	phaseSeconds                                                     *obs.Counter[float64]
	phaseSpans, events                                               *obs.Counter[int64]
}

// newServerMetrics registers every /metrics family in rendering order.
func newServerMetrics(s *Server) *serverMetrics {
	r := &obs.Registry{}
	m := &serverMetrics{reg: r}
	counter := func(name, help string, labels ...string) *obs.Counter[int64] {
		return obs.NewCounter[int64](r, name, help, labels...)
	}
	value := func(name, help, typ string, read func() int64) {
		obs.NewFunc(r, name, help, typ, nil, func(emit func(int64, ...string)) { emit(read()) })
	}
	ratio := func(name, help string, hits, misses *obs.Counter[int64]) {
		obs.NewFunc(r, name, help, "gauge", nil, func(emit func(float64, ...string)) {
			if h, tot := hits.Value(), hits.Value()+misses.Value(); tot > 0 {
				emit(float64(h) / float64(tot))
			}
		})
	}

	m.requests = counter("tempartd_requests_total", "HTTP requests by endpoint, method and status code.", "endpoint", "method", "code")
	m.partRuns = counter("tempartd_partition_runs_total", "Partitioner executions by strategy (cache hits and dedup joins excluded).", "strategy")
	m.partTimes = obs.NewHistogram(r, "tempartd_partition_latency_seconds", "Partition execution latency by strategy.", latencyBuckets, "strategy")
	m.repartRuns = counter("tempartd_repart_runs_total", "Repartitioner executions by resolved mode.", "mode")
	m.repartTimes = obs.NewHistogram(r, "tempartd_repart_latency_seconds",
		"Repartition execution latency by resolved mode (compare incremental modes against scratch).", latencyBuckets, "mode")
	m.httpTimes = obs.NewHistogram(r, "tempartd_http_request_duration_seconds",
		"Wall-clock latency of instrumented HTTP exchanges by endpoint.", latencyBuckets, "endpoint")
	m.admissionWait = obs.NewHistogram(r, "tempartd_admission_wait_seconds", "Time admitted jobs spent queued before a worker picked them up.", latencyBuckets)
	m.migrationBytes = obs.NewHistogram(r, "tempartd_repart_migration_bytes", "Serialized bytes moved between domains per repartition.", migrationBuckets)
	m.cacheHits = counter("tempartd_cache_hits_total", "Partition requests served from the content-addressed cache.")
	m.cacheMisses = counter("tempartd_cache_misses_total", "Partition requests that missed the cache.")
	ratio("tempartd_cache_hit_ratio", "Fraction of lookups served from cache.", m.cacheHits, m.cacheMisses)
	m.parentHits = counter("tempartd_repart_parent_hits_total", "Repartition warm starts whose parent part_hash was found in the partition store.")
	m.parentMisses = counter("tempartd_repart_parent_misses_total", "Repartition warm starts whose parent part_hash was missing (evicted or unknown).")
	ratio("tempartd_repart_warm_start_hit_ratio", "Fraction of parent part_hash lookups that hit the partition store.", m.parentHits, m.parentMisses)
	m.evalRuns = counter("tempartd_eval_runs_total", "Evaluation-pipeline runs (requests carrying an evaluate spec).")
	m.evalGraphHits = counter("tempartd_eval_graph_cache_hits_total", "Evaluation runs whose task graph came from the graph cache.")
	m.queueRejected = counter("tempartd_queue_rejected_total", "Requests rejected with 429 because the admission queue was full.")
	m.jobsCancelled = counter("tempartd_jobs_cancelled_total", "Jobs stopped before completion by disconnect, deadline or explicit cancel.")
	value("tempartd_queue_depth", "Jobs waiting in the admission queue.", "gauge", func() int64 { return int64(len(s.queue)) })
	value("tempartd_inflight_jobs", "Jobs currently executing on the worker pool.", "gauge", s.inflight.Load)
	value("tempartd_cache_bytes", "Bytes held by the result cache.", "gauge", func() int64 { b, _ := s.cache.stats(); return b })
	value("tempartd_cache_entries", "Entries held by the result cache.", "gauge", func() int64 { _, n := s.cache.stats(); return int64(n) })
	value("tempartd_draining", "1 while the server is draining for shutdown.", "gauge", func() int64 {
		if s.isDraining() {
			return 1
		}
		return 0
	})

	// The durability tier's stats, read per family so rendering never
	// contends with the batcher.
	if st := s.store; st != nil {
		stat := func(name, help, typ string, field func(store.Stats) int64) {
			value(name, help, typ, func() int64 { return field(st.Stats()) })
		}
		stat("tempartd_store_puts_total", "Artifacts committed to the durable store.", "counter", func(x store.Stats) int64 { return x.Puts })
		stat("tempartd_store_put_bytes_total", "Artifact bytes committed to the durable store.", "counter", func(x store.Stats) int64 { return x.PutBytes })
		stat("tempartd_store_dedup_skips_total", "Artifact writes elided because the content address was already committed.", "counter", func(x store.Stats) int64 { return x.DedupSkips })
		stat("tempartd_store_reads_total", "Store read-through lookups.", "counter", func(x store.Stats) int64 { return x.Reads })
		stat("tempartd_store_read_hits_total", "Store read-through lookups that found a committed artifact.", "counter", func(x store.Stats) int64 { return x.ReadHits })
		stat("tempartd_store_read_corrupt_total", "Store reads whose blob bytes no longer matched the recorded digest.", "counter", func(x store.Stats) int64 { return x.ReadCorrupt })
		stat("tempartd_store_batch_flushes_total", "Batched commit flushes (each pays one fsync set).", "counter", func(x store.Stats) int64 { return x.BatchFlushes })
		stat("tempartd_store_batched_commits_total", "Commits covered by batched flushes (ratio to flushes = amortization factor).", "counter", func(x store.Stats) int64 { return x.BatchedCommits })
		stat("tempartd_store_flush_errors_total", "Batch flushes that failed.", "counter", func(x store.Stats) int64 { return x.FlushErrors })
		stat("tempartd_store_journal_records_total", "Job-journal records appended since open.", "counter", func(x store.Stats) int64 { return x.JournalRecords })
		stat("tempartd_store_prov_entries", "Length of the hash-chained provenance log.", "gauge", func(x store.Stats) int64 { return x.ProvEntries })
		stat("tempartd_store_jobs_recovered", "Jobs folded from the journal at the last open.", "gauge", func(x store.Stats) int64 { return x.JobsRecovered })
		stat("tempartd_store_jobs_requeued", "Non-terminal jobs re-queued by the journal replay at the last open.", "gauge", func(x store.Stats) int64 { return x.JobsPending })
	}
	if s.cluster != nil {
		r.Include(s.cluster.Metrics())
	}

	m.phaseSeconds = obs.NewCounter[float64](r, "tempartd_pipeline_phase_seconds_total",
		"Cumulative wall-clock seconds per pipeline phase across traced requests.", "phase")
	m.phaseSpans = counter("tempartd_pipeline_phase_spans_total", "Spans recorded per pipeline phase across traced requests.", "phase")
	m.events = counter("tempartd_pipeline_events_total", "Pipeline counter events across traced requests.", "event")
	obs.RegisterRuntimeMetrics(r)
	return m
}

// drain folds a finished job's recorder into the traced-pipeline families.
// A nil recorder (an untraced job) adds nothing.
func (m *serverMetrics) drain(rec *obs.Recorder) {
	for name, st := range rec.PhaseTotals() {
		m.phaseSeconds.Add(st.Seconds, name)
		m.phaseSpans.Add(st.Count, name)
	}
	for name, v := range rec.Counters() {
		m.events.Add(v, name)
	}
}
