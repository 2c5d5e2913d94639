package flusim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/taskgraph"
)

// updateGolden rewrites testdata/golden_cpf.json from this tree's output:
// go test ./internal/flusim -run TestGoldenCPFRuns -update. A change meant to
// keep schedules byte-identical must leave the file alone.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_cpf.json")

const goldenPath = "testdata/golden_cpf.json"

// cpfRow is one pinned CriticalPathFirst run: its inputs (the partition is
// partition.PartitionMesh at seed 1) and its outputs — the makespan, the
// number of cross-process dependency edges, and the SHA-256 of the trace.
type cpfRow struct {
	Mesh        string  `json:"mesh"`
	Scale       float64 `json:"scale"`
	K           int     `json:"k"`
	Strategy    string  `json:"strategy"`
	NumProcs    int     `json:"procs"`
	Workers     int     `json:"workers"`
	CommLatency int64   `json:"comm_latency"`
	Makespan    int64   `json:"makespan"`
	CommVolume  int64   `json:"comm_volume"`
	Spans       int     `json:"spans"`
	Trace       string  `json:"trace_sha256"`
}

func (r cpfRow) String() string {
	return fmt.Sprintf("%s@%g/k%d/%s/%dx%d/lat%d", r.Mesh, r.Scale, r.K, r.Strategy, r.NumProcs, r.Workers, r.CommLatency)
}

// cpfRows lists the pinned runs (outputs empty): the four partitions the
// benchmark's downstream_nozzle lane evaluates, each on its 6×4 cluster, a
// smaller one and an unbounded one, without and with communication latency.
func cpfRows() []cpfRow {
	var rows []cpfRow
	for _, k := range []int{12, 192} {
		for _, strat := range []string{"MC_TL", "SC_OC"} {
			for _, c := range []Cluster{{NumProcs: 6, WorkersPerProc: 4}, {NumProcs: 4, WorkersPerProc: 2}, {NumProcs: 6}} {
				for _, lat := range []int64{0, 5} {
					rows = append(rows, cpfRow{Mesh: "PPRIME_NOZZLE", Scale: 0.005, K: k, Strategy: strat,
						NumProcs: c.NumProcs, Workers: c.WorkersPerProc, CommLatency: lat})
				}
			}
		}
	}
	return rows
}

// cpfGraphs caches the pinned rows' task graphs across -count repetitions.
var cpfGraphs sync.Map // "mesh@scale/kK/strategy" → *taskgraph.TaskGraph

// cpfGraph returns the task graph of r's partition.
func cpfGraph(t *testing.T, m func() *mesh.Mesh, r cpfRow) *taskgraph.TaskGraph {
	key := fmt.Sprintf("%s@%g/k%d/%s", r.Mesh, r.Scale, r.K, r.Strategy)
	if tg, ok := cpfGraphs.Load(key); ok {
		return tg.(*taskgraph.TaskGraph)
	}
	strat, err := partition.ParseStrategy(r.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.PartitionMesh(context.Background(), m(), r.K, strat, partition.Options{Seed: 1, Parallelism: 2})
	if err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	tg, err := taskgraph.Build(m(), res.Part, r.K, taskgraph.Options{})
	if err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	cpfGraphs.Store(key, tg)
	return tg
}

// crossEdges counts the dependency edges between tasks on different
// processes by one pass over every task's predecessors.
func crossEdges(tg *taskgraph.TaskGraph, procOf []int32) int64 {
	var vol int64
	for t := range tg.Tasks {
		pt := procOf[tg.Tasks[t].Domain]
		for _, pr := range tg.PredsOf(int32(t)) {
			if procOf[tg.Tasks[pr].Domain] != pt {
				vol++
			}
		}
	}
	return vol
}

// digestSpans hashes every span's fields as little-endian integers.
func digestSpans(res *Result) string {
	h := sha256.New()
	var buf [32]byte
	for _, s := range res.Trace.Spans {
		binary.LittleEndian.PutUint32(buf[0:], uint32(s.Proc))
		binary.LittleEndian.PutUint32(buf[4:], uint32(s.Worker))
		binary.LittleEndian.PutUint32(buf[8:], uint32(s.Task))
		binary.LittleEndian.PutUint32(buf[12:], uint32(s.Sub))
		binary.LittleEndian.PutUint64(buf[16:], uint64(s.Start))
		binary.LittleEndian.PutUint64(buf[24:], uint64(s.End))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenCPFRuns pins the makespan, the cross-process edge count and the
// trace of CriticalPathFirst runs on the benchmark's downstream partitions:
// a change to the CPF ready queue, to how bottom levels are computed or to
// how communication is counted must reproduce every row byte for byte, or
// edit the golden file on purpose (-update).
func TestGoldenCPFRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("partitions PPRIME_NOZZLE at scale 0.005")
	}
	var once sync.Once
	var m *mesh.Mesh
	meshOf := func() *mesh.Mesh {
		once.Do(func() {
			var err error
			if m, err = mesh.ByName("PPRIME_NOZZLE", 0.005); err != nil {
				t.Fatal(err)
			}
		})
		return m
	}
	sim := NewSimulator()
	var res Result
	run := func(r cpfRow) cpfRow {
		tg := cpfGraph(t, meshOf, r)
		procOf := BlockMap(r.K, r.NumProcs)
		cfg := Config{Cluster: Cluster{NumProcs: r.NumProcs, WorkersPerProc: r.Workers},
			Strategy: CriticalPathFirst, RecordTrace: true, CommLatency: r.CommLatency}
		if err := sim.SimulateInto(&res, tg, procOf, cfg); err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if want := crossEdges(tg, procOf); res.CommVolume != want {
			t.Errorf("%v: the run counted %d cross-process edges, a pass over the predecessors %d", r, res.CommVolume, want)
		}
		r.Makespan, r.CommVolume = res.Makespan, res.CommVolume
		r.Spans, r.Trace = len(res.Trace.Spans), digestSpans(&res)
		return r
	}

	if *updateGolden {
		rows := cpfRows()
		for i := range rows {
			rows[i] = run(rows[i])
		}
		out, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want []cpfRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	rows := cpfRows()
	if len(rows) != len(want) {
		t.Fatalf("golden file has %d rows, the configuration list %d (regenerate with -update)", len(want), len(rows))
	}
	for i, w := range want {
		cfg := w
		cfg.Makespan, cfg.CommVolume, cfg.Spans, cfg.Trace = 0, 0, 0, ""
		if cfg != rows[i] {
			t.Fatalf("golden row %d is %v, the configuration list has %v (regenerate with -update)", i, cfg, rows[i])
		}
		if got := run(cfg); got != w {
			t.Errorf("%v: got makespan %d, comm volume %d, %d spans, trace %s; pinned %d, %d, %d, %s",
				w, got.Makespan, got.CommVolume, got.Spans, got.Trace, w.Makespan, w.CommVolume, w.Spans, w.Trace)
		}
	}
}
