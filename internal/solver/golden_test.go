package solver

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tempart/internal/mesh"
	"tempart/internal/partition"
	"tempart/internal/runtime"
)

// updateGolden rewrites testdata/golden_solver.json from this tree's output:
// go test ./internal/solver -run TestGoldenSolverStates -update. A change
// that is meant to keep the solver's floating-point output bit-identical must
// leave the file alone.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_solver.json")

const goldenPath = "testdata/golden_solver.json"

// goldenSetup is one pinned solver configuration: a mesh, its partition
// (partition.PartitionMesh at seed 1), the physics and the initial state.
type goldenSetup struct {
	mesh     string
	scale    float64
	k        int
	strategy string
	model    Model
	init     string // "blast", "gaussian" or "sod"
}

var goldenSetups = []goldenSetup{
	{"PPRIME_NOZZLE", 0.002, 12, "MC_TL", Euler, "blast"},
	{"CUBE", 0.02, 3, "SC_OC", Scalar, "gaussian"},
	{"CYLINDER", 0.0005, 4, "MC_TL", Euler, "sod"},
}

var (
	goldenWorkers    = []int{1, 2, 4}
	goldenPolicies   = []runtime.Policy{runtime.Central, runtime.WorkStealing, runtime.DomainLocal}
	goldenIterations = []int{1, 3}
)

// goldenSodSplit is the Sod diaphragm position on CYLINDER, whose cell
// centroids span x ∈ (0, 2).
const goldenSodSplit = 1.0

// goldenSolverRow is the state digest of one setup after Iterations
// iterations run by Workers workers under Policy.
type goldenSolverRow struct {
	Mesh       string  `json:"mesh"`
	Scale      float64 `json:"scale"`
	K          int     `json:"k"`
	Strategy   string  `json:"strategy"`
	Model      string  `json:"model"`
	Init       string  `json:"init"`
	Workers    int     `json:"workers"`
	Policy     string  `json:"policy"`
	Iterations int     `json:"iterations"`
	Cells      int     `json:"cells"`
	State      string  `json:"state_sha256"`
}

func (r goldenSolverRow) String() string {
	return fmt.Sprintf("%s@%g/k%d/%s/%s-%s/w%d/%s/iters%d",
		r.Mesh, r.Scale, r.K, r.Strategy, r.Model, r.Init, r.Workers, r.Policy, r.Iterations)
}

// config is the row with its outputs cleared.
func (r goldenSolverRow) config() goldenSolverRow {
	r.Cells, r.State = 0, ""
	return r
}

// goldenSolverRows lists the pinned configurations (outputs empty), in the
// order the test computes them.
func goldenSolverRows() []goldenSolverRow {
	var rows []goldenSolverRow
	for _, g := range goldenSetups {
		for _, w := range goldenWorkers {
			for _, pol := range goldenPolicies {
				for _, it := range goldenIterations {
					rows = append(rows, goldenSolverRow{Mesh: g.mesh, Scale: g.scale, K: g.k,
						Strategy: g.strategy, Model: g.model.String(), Init: g.init,
						Workers: w, Policy: pol.String(), Iterations: it})
				}
			}
		}
	}
	return rows
}

// stateDigest hashes the IEEE-754 bits of every cell's conserved variables
// (ρ, mx, my, mz, E per cell for Euler; U for the scalar model), followed by
// the bits of Mass(), as little-endian uint64s.
func stateDigest(s *Solver) string {
	var vals []float64
	if es := s.EulerState; es != nil {
		for c := 0; c < es.NumCells(); c++ {
			mx, my, mz := es.Momentum(c)
			vals = append(vals, es.Density(c), mx, my, mz, es.Energy(c))
		}
		vals = append(vals, es.Mass())
	} else {
		vals = append(vals, s.State.U...)
		vals = append(vals, s.State.Mass())
	}
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// computeGoldenSolverRows runs every pinned configuration and returns the
// rows of goldenSolverRows with their outputs filled in. One solver per
// (setup, workers, policy) runs 1 iteration, is digested, then runs the
// remaining ones.
func computeGoldenSolverRows(t *testing.T) []goldenSolverRow {
	t.Helper()
	rows := goldenSolverRows()
	i := 0
	for _, g := range goldenSetups {
		m, err := mesh.ByName(g.mesh, g.scale)
		if err != nil {
			t.Fatal(err)
		}
		strat, err := partition.ParseStrategy(g.strategy)
		if err != nil {
			t.Fatal(err)
		}
		res, err := partition.PartitionMesh(context.Background(), m, g.k, strat, partition.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range goldenWorkers {
			for _, pol := range goldenPolicies {
				s, err := NewFromPartition(m, res, Config{Workers: w, Policy: pol, Model: g.model})
				if err != nil {
					t.Fatal(err)
				}
				if g.init == "sod" {
					s.EulerState.InitSod(goldenSodSplit)
				}
				done := 0
				for _, it := range goldenIterations {
					if _, err := s.Run(it - done); err != nil {
						t.Fatalf("%v: %v", rows[i], err)
					}
					done = it
					rows[i].Cells = s.Mesh.NumCells()
					rows[i].State = stateDigest(s)
					i++
				}
			}
		}
	}
	return rows
}

// TestGoldenSolverStates pins the solver's floating-point output — every
// cell's conserved variables and the total mass after 1 and 3 iterations —
// to the committed digests, at 1, 2 and 4 workers under every scheduling
// policy. The task graph makes execution bit-exact deterministic, so the
// digest of a setup must not depend on the workers or the policy; an
// intended numerical change has to edit the golden file on purpose
// (-update).
func TestGoldenSolverStates(t *testing.T) {
	got := computeGoldenSolverRows(t)
	first := map[string]goldenSolverRow{}
	for _, r := range got {
		key := fmt.Sprintf("%s@%g/k%d/%s/%s/iters%d", r.Mesh, r.Scale, r.K, r.Model, r.Init, r.Iterations)
		if f, ok := first[key]; !ok {
			first[key] = r
		} else if r.State != f.State {
			t.Errorf("%v: digest %s differs from %v's %s (execution not deterministic)", r, r.State, f, f.State)
		}
	}

	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var rows []goldenSolverRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(rows) != len(got) {
		t.Fatalf("%s holds %d rows, the test pins %d", goldenPath, len(rows), len(got))
	}
	for i, r := range rows {
		if r.config() != got[i].config() {
			t.Fatalf("%s row %d is %v, the test pins %v", goldenPath, i, r, got[i])
		}
		if got[i] != r {
			t.Errorf("%v: got %+v, golden %+v", r, got[i], r)
		}
	}
}
