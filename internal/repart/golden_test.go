package repart

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
	"reflect"
	"testing"

	"tempart/internal/graph"
	"tempart/internal/mesh"
	"tempart/internal/partition"
)

// updateGolden rewrites testdata/golden_repart.json from this tree's output:
// go test ./internal/repart -run TestGoldenRepartitions -update. A change
// that is meant to keep repartitions byte-identical must leave the file alone.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_repart.json")

const goldenPath = "testdata/golden_repart.json"

// Golden fixture: CYLINDER at 16 000 cells, k = 64 (the benchmark's
// repart_drift_cylinder size), the hot core shifted by each of goldenShifts.
const (
	goldenScale = 0.0025
	goldenK     = 64
)

var goldenShifts = []float64{0.01, 0.05, 0.2}

// goldenRow is one pinned repartition: its inputs and the SHA-256 of
// Result.Part serialised as little-endian int32. Penalty is
// Options.MigrationPenalty (0 = the default, -1 = disabled).
type goldenRow struct {
	Shift   float64 `json:"shift"`
	Mode    string  `json:"mode"`
	Penalty float64 `json:"penalty"`
	Used    string  `json:"used"` // the mode Auto resolved to
	SHA256  string  `json:"sha256"`
}

func (r goldenRow) String() string {
	return fmt.Sprintf("shift%g/%s/penalty%g", r.Shift, r.Mode, r.Penalty)
}

// goldenRows lists the pinned configurations (digests empty).
func goldenRows() []goldenRow {
	var rows []goldenRow
	for _, shift := range goldenShifts {
		for _, mode := range []Mode{Refine, Diffuse, Auto} {
			for _, pen := range []float64{0, -1} {
				rows = append(rows, goldenRow{Shift: shift, Mode: mode.String(), Penalty: pen})
			}
		}
	}
	return rows
}

func partDigest(part []int32) string {
	buf := make([]byte, 4*len(part))
	for i, p := range part {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(p))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestGoldenRepartitions pins the repartitioned part vector of every
// goldenRows configuration, at every parallelism, to the committed digest —
// the warm paths' counterpart of partition's TestGoldenPartitions.
func TestGoldenRepartitions(t *testing.T) {
	type fixture struct {
		g     *graph.Graph
		bytes []int64
	}
	var old *partition.Result
	fixtures := map[float64]fixture{}
	fixtureOf := func(shift float64) fixture {
		if f, ok := fixtures[shift]; ok {
			return f
		}
		m, o := driftedCylinder(t, goldenScale, goldenK, shift)
		if old == nil {
			old = o // same mesh, seed and k for every shift
		}
		f := fixture{g: m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel}), bytes: MeshMigrationBytes(m)}
		fixtures[shift] = f
		return f
	}
	run := func(r goldenRow, par int) (digest, used string) {
		mode, err := ParseMode(r.Mode)
		if err != nil {
			t.Fatal(err)
		}
		f := fixtureOf(r.Shift)
		res, err := Repartition(context.Background(), f.g, old, Options{
			Mode:             mode,
			MigrationPenalty: r.Penalty,
			MigBytes:         f.bytes,
			Part:             partition.Options{Seed: 1, Parallelism: par},
		})
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		return partDigest(res.Part), res.Mode.String()
	}

	if *updateGolden {
		rows := goldenRows()
		for i := range rows {
			rows[i].SHA256, rows[i].Used = run(rows[i], 1)
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
	pars := []int{1, 2, 8}
	if testing.Short() {
		pars = pars[:1]
	}
	for i, r := range rows {
		cfg := r
		cfg.SHA256, cfg.Used = "", ""
		if cfg != want[i] {
			t.Fatalf("%s row %d is %v, the test pins %v", goldenPath, i, r, want[i])
		}
		for _, par := range pars {
			if got, used := run(r, par); got != r.SHA256 || used != r.Used {
				t.Errorf("%v parallelism %d: part digest %s (mode %s), golden %s (mode %s)", r, par, got, used, r.SHA256, r.Used)
			}
		}
	}
}

// TestLiveResultMatchesNewResult: the Result a repartition returns — the
// warm modes' read off the refiner's live table, Scratch's the fresh
// partition's relabelled — equals NewResult's rescan of its part vector,
// part weights and edge cut alike, on every golden row and in every mode,
// Scratch and Keep included, at parallelism 1, 2 and 8.
func TestLiveResultMatchesNewResult(t *testing.T) {
	pars := []int{1, 2, 8}
	if testing.Short() {
		pars = pars[:1]
	}
	var old *partition.Result
	for _, shift := range goldenShifts {
		m, o := driftedCylinder(t, goldenScale, goldenK, shift)
		if old == nil {
			old = o
		}
		g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
		bytes := MeshMigrationBytes(m)
		for _, mode := range []Mode{Refine, Diffuse, Auto, Scratch, Keep} {
			for _, pen := range []float64{0, -1} {
				for _, par := range pars {
					res, err := Repartition(context.Background(), g, old, Options{
						Mode: mode, MigrationPenalty: pen, MigBytes: bytes,
						Part: partition.Options{Seed: 1, Parallelism: par},
					})
					if err != nil {
						t.Fatal(err)
					}
					want := partition.NewResult(g, res.Part, goldenK)
					if res.EdgeCut != want.EdgeCut || !reflect.DeepEqual(res.PartWeights, want.PartWeights) || res.NumParts != want.NumParts {
						t.Errorf("shift %g %v penalty %g parallelism %d: result cut %d, weights %v; NewResult cut %d, weights %v",
							shift, mode, pen, par, res.EdgeCut, res.PartWeights, want.EdgeCut, want.PartWeights)
					}
				}
			}
		}
	}
}
