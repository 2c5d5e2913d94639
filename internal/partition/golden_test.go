package partition

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

	"tempart/internal/graph"
	"tempart/internal/mesh"
)

// updateGolden rewrites testdata/golden_parts.json from this tree's output:
// go test ./internal/partition -run TestGoldenPartitions -update. A change
// that is meant to keep part vectors byte-identical must leave the file alone.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_parts.json")

const goldenPath = "testdata/golden_parts.json"

// goldenRow is one pinned partition: its inputs and the SHA-256 of
// Result.Part serialised as little-endian int32.
type goldenRow struct {
	Mesh     string  `json:"mesh"`
	Scale    float64 `json:"scale"`
	K        int     `json:"k"`
	Strategy string  `json:"strategy"`
	Method   string  `json:"method"`
	Seed     int64   `json:"seed"`
	SHA256   string  `json:"sha256"`
}

func (r goldenRow) String() string {
	return fmt.Sprintf("%s@%g/k%d/%s/%s/seed%d", r.Mesh, r.Scale, r.K, r.Strategy, r.Method, r.Seed)
}

// goldenRows lists the pinned configurations (digests empty).
func goldenRows() []goldenRow {
	var rows []goldenRow
	for _, mc := range []struct {
		mesh  string
		scale float64
		k     int
	}{{"CYLINDER", 0.003, 128}, {"PPRIME_NOZZLE", 0.0005, 12}, {"CUBE", 0.05, 16}} {
		for _, strat := range []string{"SC_OC", "MC_TL"} {
			for seed := int64(0); seed < 6; seed++ {
				rows = append(rows, goldenRow{Mesh: mc.mesh, Scale: mc.scale, K: mc.k, Strategy: strat, Method: "rb", Seed: seed})
			}
		}
	}
	return append(rows,
		goldenRow{Mesh: "CUBE", Scale: 0.05, K: 16, Strategy: "MC_TL", Method: "kway", Seed: 1},
		goldenRow{Mesh: "CYLINDER", Scale: 0.003, K: 128, Strategy: "MC_TL", Method: methodRefineBiased, Seed: 1})
}

// methodRefineBiased marks the row that pins the Refiner itself rather than a
// construction: a striped assignment refined under a migration bias toward
// the stripes, the call shape internal/repart makes.
const methodRefineBiased = "refine_biased"

func refineBiasedDigest(t *testing.T, g *graph.Graph, r goldenRow, par int) string {
	n := g.NumVertices()
	part := stripedAssignment(n, r.K)
	origin := append([]int32(nil), part...)
	pen := make([]int64, n)
	for i := range pen {
		pen[i] = int64(i%3) + 1
	}
	err := refineFresh(context.Background(), g, part, r.K, RefineOptions{Parallelism: par}, origin, pen)
	if err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	return partDigest(part)
}

func partDigest(part []int32) string {
	buf := make([]byte, 4*len(part))
	for i, p := range part {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(p))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestGoldenPartitions pins the part vector of every goldenRows
// configuration, at every parallelism, to the committed digest: an output
// change has to edit the golden file on purpose (-update).
func TestGoldenPartitions(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	graphOf := func(r goldenRow) *graph.Graph {
		key := fmt.Sprintf("%s@%g/%s", r.Mesh, r.Scale, r.Strategy)
		if g, ok := graphs[key]; ok {
			return g
		}
		m, err := mesh.ByName(r.Mesh, r.Scale)
		if err != nil {
			t.Fatal(err)
		}
		strat, err := ParseStrategy(r.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		g, err := StrategyGraph(m, strat)
		if err != nil {
			t.Fatal(err)
		}
		graphs[key] = g
		return g
	}
	digest := func(r goldenRow, par int) string {
		if r.Method == methodRefineBiased {
			return refineBiasedDigest(t, graphOf(r), r, par)
		}
		opt := Options{Seed: r.Seed, Parallelism: par}
		if r.Method == "kway" {
			opt.Method = DirectKWay
		}
		res, err := Partition(context.Background(), graphOf(r), r.K, opt)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		return partDigest(res.Part)
	}

	if *updateGolden {
		rows := goldenRows()
		for i := range rows {
			rows[i].SHA256 = digest(rows[i], 1)
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
		cfg := r
		cfg.SHA256 = ""
		if cfg != want[i] {
			t.Fatalf("%s row %d is %v, the test pins %v", goldenPath, i, r, want[i])
		}
		for _, par := range parallelismSettings {
			if got := digest(r, par); got != r.SHA256 {
				t.Errorf("%v parallelism %d: part digest %s, golden %s", r, par, got, r.SHA256)
			}
		}
	}
}
