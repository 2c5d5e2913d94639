package taskgraph

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
	"testing"

	"tempart/internal/mesh"
	"tempart/internal/partition"
)

// updateGolden rewrites testdata/golden_taskgraphs.json from this tree's
// output: go test ./internal/taskgraph -run TestGoldenTaskGraphs -update. A
// change that is meant to keep task graphs byte-identical must leave the file
// alone.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_taskgraphs.json")

const goldenPath = "testdata/golden_taskgraphs.json"

// goldenRow is one pinned task graph: its inputs (the partition is
// partition.PartitionMesh at seed 1) and the SHA-256 of each emitted array,
// serialised as little-endian integers.
type goldenRow struct {
	Mesh       string  `json:"mesh"`
	Scale      float64 `json:"scale"`
	K          int     `json:"k"`
	Strategy   string  `json:"strategy"`
	Iterations int     `json:"iterations"`
	NumTasks   int     `json:"tasks"`
	NumDeps    int     `json:"deps"`
	Tasks      string  `json:"tasks_sha256"`
	PredStart  string  `json:"pred_start_sha256"`
	Preds      string  `json:"preds_sha256"`
	Objects    string  `json:"objects_sha256"`
}

func (r goldenRow) String() string {
	return fmt.Sprintf("%s@%g/k%d/%s/iters%d", r.Mesh, r.Scale, r.K, r.Strategy, r.Iterations)
}

// config is the row with its outputs cleared.
func (r goldenRow) config() goldenRow {
	return goldenRow{Mesh: r.Mesh, Scale: r.Scale, K: r.K, Strategy: r.Strategy, Iterations: r.Iterations}
}

// goldenRows lists the pinned configurations (outputs empty).
func goldenRows() []goldenRow {
	var rows []goldenRow
	for _, mc := range []struct {
		mesh  string
		scale float64
		k     int
	}{{"PPRIME_NOZZLE", 0.0005, 12}, {"PPRIME_NOZZLE", 0.0005, 192}, {"CUBE", 0.05, 16}, {"CYLINDER", 0.003, 128}} {
		for _, strat := range []string{"MC_TL", "SC_OC"} {
			for _, iters := range []int{1, 3} {
				rows = append(rows, goldenRow{Mesh: mc.mesh, Scale: mc.scale, K: mc.k, Strategy: strat, Iterations: iters})
			}
		}
	}
	return rows
}

// digestInts hashes vals as little-endian int32s.
func digestInts(vals []int32) string {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// digestGraph fills r's outputs from tg.
func digestGraph(r goldenRow, tg *TaskGraph) goldenRow {
	var tasks []int32
	for _, t := range tg.Tasks {
		ext := int32(0)
		if t.External {
			ext = 1
		}
		tasks = append(tasks, t.ID, t.Iter, t.Sub, int32(t.Tau), int32(t.Kind), t.Domain, ext,
			t.NumObjects, int32(t.Cost), int32(t.Cost>>32))
	}
	// Objects: each list's length, then its ids.
	var objects []int32
	for _, objs := range tg.Objects {
		objects = append(objects, int32(len(objs)))
		objects = append(objects, objs...)
	}
	r.NumTasks, r.NumDeps = tg.NumTasks(), tg.NumDeps()
	r.Tasks = digestInts(tasks)
	r.PredStart = digestInts(tg.PredStart)
	r.Preds = digestInts(tg.Preds)
	r.Objects = digestInts(objects)
	return r
}

// TestGoldenTaskGraphs pins the DAG (Tasks, PredStart, Preds, Objects) of
// every goldenRows configuration to the committed digests: makespans, cached
// graphs and solver schedules all hang off these bytes, so an output change
// has to edit the golden file on purpose (-update). Each row is built twice,
// with object lists (the solver's build) and without (the evaluations'), and
// both builds must agree on everything but Objects.
func TestGoldenTaskGraphs(t *testing.T) {
	parts := map[string]*partition.Result{}
	meshes := map[string]*mesh.Mesh{}
	digest := func(r goldenRow) goldenRow {
		mkey := fmt.Sprintf("%s@%g", r.Mesh, r.Scale)
		m, ok := meshes[mkey]
		if !ok {
			var err error
			if m, err = mesh.ByName(r.Mesh, r.Scale); err != nil {
				t.Fatal(err)
			}
			meshes[mkey] = m
		}
		pkey := fmt.Sprintf("%s/k%d/%s", mkey, r.K, r.Strategy)
		res, ok := parts[pkey]
		if !ok {
			strat, err := partition.ParseStrategy(r.Strategy)
			if err != nil {
				t.Fatal(err)
			}
			if res, err = partition.PartitionMesh(context.Background(), m, r.K, strat, partition.Options{Seed: 1}); err != nil {
				t.Fatalf("%v: %v", r, err)
			}
			parts[pkey] = res
		}
		tg, err := BuildIterations(m, res.Part, r.K, r.Iterations, Options{RecordObjects: true})
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if err := tg.Validate(); err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		got := digestGraph(r, tg)
		// Evaluations build without object lists: that graph must carry the
		// same Tasks, PredStart and Preds, and no Objects.
		bare, err := BuildIterations(m, res.Part, r.K, r.Iterations, Options{})
		if err != nil {
			t.Fatalf("%v without objects: %v", r, err)
		}
		if len(bare.Objects) != 0 {
			t.Errorf("%v without objects: %d object lists", r, len(bare.Objects))
		}
		if b := digestGraph(r, bare); b.NumTasks != got.NumTasks || b.NumDeps != got.NumDeps ||
			b.Tasks != got.Tasks || b.PredStart != got.PredStart || b.Preds != got.Preds {
			t.Errorf("%v without objects: got %+v, with objects %+v", r, b, got)
		}
		return got
	}

	if *updateGolden {
		rows := goldenRows()
		for i := range rows {
			rows[i] = digest(rows[i])
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
		t.Logf("wrote %d digests to %s", len(rows), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var rows []goldenRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	want := goldenRows()
	if len(rows) != len(want) {
		t.Fatalf("%s holds %d rows, the test pins %d", goldenPath, len(rows), len(want))
	}
	for i, r := range rows {
		if r.config() != want[i] {
			t.Fatalf("%s row %d is %v, the test pins %v", goldenPath, i, r, want[i])
		}
		if got := digest(want[i]); got != r {
			t.Errorf("%v: got %+v, golden %+v", r, got, r)
		}
	}
}
