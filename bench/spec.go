package main

// metricSpec is one row of BENCHMARK.json: the name a later issue cites, its
// unit, which direction is better, and (end-to-end only) the share of the
// parent's median by which it may worsen before a change counts as a
// regression. TestManifestMatchesSpec keeps BENCHMARK.json equal to these
// tables.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees. Every untraced run prints all
// of them; README.md says which workload measures each at full size.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"partition_cells_per_s", "cells/s", higher, 0.25},
	{"partition_par_cells_per_s", "cells/s", higher, 0.25},
	{"makespan", "flusim_units", lower, 0.05},
	{"makespan_gain", "ratio", higher, 0.10},
	{"worst_level_imbalance", "ratio", lower, 0.05},
	{"edge_cut", "count", lower, 0.03},
	{"evals_per_s", "1/s", higher, 0.25},
	{"solver_cell_updates_per_s", "1/s", higher, 0.25},
	{"repart_cells_per_s", "cells/s", higher, 0.25},
	{"migrated_share", "ratio", lower, 0.10},
	{"repart_makespan_ratio", "ratio", lower, 0.10},
	{"serve_rps", "1/s", higher, 0.25},
	{"serve_p50_ms", "ms", lower, 0.25},
	{"serve_p99_ms", "ms", lower, 0.25},
	{"serve_ok_share", "ratio", higher, 0.001},
}

// perLayer is the traced run's output: one or more numbers per layer a
// request crosses. They carry no bound; README.md maps each to the
// end-to-end metric it should move.
var perLayer = []metricSpec{
	{"mesh.gen_cells_per_s", "cells/s", higher, 0},
	{"mesh.dual_graph_cells_per_s", "cells/s", higher, 0},
	{"graph.contract_edges_per_s", "1/s", higher, 0},
	{"graph.subgraph_edges_per_s", "1/s", higher, 0},
	{"partition.coarsen_s", "s", lower, 0},
	{"partition.match_s", "s", lower, 0},
	{"partition.contract_s", "s", lower, 0},
	{"partition.initial_s", "s", lower, 0},
	{"partition.refine_s", "s", lower, 0},
	{"partition.subgraph_s", "s", lower, 0},
	{"partition.fm_passes", "count", lower, 0},
	{"partition.span_coverage", "ratio", higher, 0},
	{"partition.sc_cells_per_s", "cells/s", higher, 0},
	{"partition.sfc_cells_per_s", "cells/s", higher, 0},
	{"partition.par2_speedup", "ratio", higher, 0},
	{"partition.allocs_per_op", "count", lower, 0},
	{"partition.bytes_per_op", "bytes", lower, 0},
	{"partition.small_mesh_ms", "ms", lower, 0},
	{"taskgraph.build_tasks_per_s", "1/s", higher, 0},
	{"taskgraph.build_allocs_per_op", "count", lower, 0},
	{"taskgraph.tasks", "count", lower, 0},
	{"taskgraph.deps", "count", lower, 0},
	{"flusim.sim_tasks_per_s", "1/s", higher, 0},
	{"flusim.sim_allocs_per_op", "count", lower, 0},
	{"eval.cold_ms", "ms", lower, 0},
	{"eval.warm_ms", "ms", lower, 0},
	{"eval.graph_cache_hit_share", "ratio", higher, 0},
	{"runtime.task_dispatch_us", "us", lower, 0},
	{"runtime.exec_tasks_per_s", "1/s", higher, 0},
	{"fv.euler_w1_cell_updates_per_s", "1/s", higher, 0},
	{"solver.scalar_k192_cell_updates_per_s", "1/s", higher, 0},
	{"solver.par2_speedup", "ratio", higher, 0},
	{"solver.assemble_s", "s", lower, 0},
	{"solver.mass_drift_rel", "ratio", lower, 0},
	{"repart.diffuse_ms", "ms", lower, 0},
	{"repart.refine_ms", "ms", lower, 0},
	{"repart.scratch_ms", "ms", lower, 0},
	{"repart.mode_keep", "count", higher, 0},
	{"repart.mode_diffuse", "count", higher, 0},
	{"repart.mode_refine", "count", lower, 0},
	{"repart.mode_scratch", "count", lower, 0},
	{"repart.moved_bytes", "bytes", lower, 0},
	{"repart.plan_ms", "ms", lower, 0},
	{"server.hit_p50_ms", "ms", lower, 0},
	{"server.store_p50_ms", "ms", lower, 0},
	{"server.miss_p50_ms", "ms", lower, 0},
	{"server.hit_share", "ratio", higher, 0},
	{"server.store_share", "ratio", lower, 0},
	{"server.miss_share", "ratio", lower, 0},
	{"server.hit_rps", "1/s", higher, 0},
	{"server.handler_hit_us", "us", lower, 0},
	{"server.repartition_ms", "ms", lower, 0},
	{"server.evaluate_ms", "ms", lower, 0},
	{"server.metrics_scrape_ms", "ms", lower, 0},
	{"server.rejected_429", "count", lower, 0},
	{"store.commit_ms", "ms", lower, 0},
	{"store.get_ms", "ms", lower, 0},
	{"store.commits_per_flush", "ratio", higher, 0},
	{"trace.overhead_ratio", "ratio", lower, 0},
	{"loadgen.clients", "count", higher, 0},
}

func findSpec(table []metricSpec, name string) (metricSpec, bool) {
	for _, s := range table {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}
