// Package tempart is a Go reproduction of "Multi-Criteria Mesh Partitioning
// for an Explicit Temporal Adaptive Task-Distributed Finite-Volume Solver"
// (Lasserre, Couteyen-Carpaye, Guermouche, Namyst — PDSEC/IPDPS-W 2024).
//
// The library implements, from scratch and on the standard library only:
//
//   - a multilevel multi-constraint graph partitioner (the METIS stand-in)
//     with the paper's SC_OC and MC_TL strategies (internal/partition);
//   - synthetic versions of the paper's three Airbus meshes with exact
//     temporal-level censuses (internal/mesh);
//   - the adaptive time-stepping scheme and Algorithm 1 task-graph
//     generation (internal/temporal, internal/taskgraph);
//   - the FLUSIM discrete-event simulator (internal/flusim);
//   - a task-based runtime and an explicit finite-volume solver — the
//     FLUSEPA/StarPU analogues (internal/runtime, internal/fv,
//     internal/solver);
//   - every table and figure of the evaluation (internal/experiments), with
//     benchmarks in internal/experiments/bench_test.go.
//
// Start with internal/core for the high-level API, cmd/experiments to
// regenerate the paper's results, and examples/quickstart for a tour.
package tempart
