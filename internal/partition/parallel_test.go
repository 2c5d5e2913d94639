package partition

import (
	"context"
	"math/rand"
	"testing"

	"tempart/internal/mesh"
)

// parallelismSettings are the worker counts every determinism test sweeps;
// they bracket "serial", "some contention" and "more workers than cores in
// CI" so scheduling differences would surface if results depended on them.
var parallelismSettings = []int{1, 2, 8}

// TestPartitionDeterministicAcrossParallelism is the tentpole's contract:
// for a fixed seed, the partition is byte-identical at every Parallelism
// setting, on every paper mesh, for both construction methods. The subtree
// RNG derivation makes the result a pure function of (graph, options), so the
// tempartd cache may ignore parallelism in its content address.
func TestPartitionDeterministicAcrossParallelism(t *testing.T) {
	meshes := []struct {
		name string
		m    *mesh.Mesh
	}{
		{"cylinder", mesh.Cylinder(0.002)},
		{"cube", mesh.Cube(0.05)},
		{"nozzle", mesh.Nozzle(0.001)},
	}
	methods := []struct {
		name string
		opt  Options
	}{
		{"rb", Options{Seed: 42}},
		{"kway", Options{Seed: 42, Method: DirectKWay}},
	}
	for _, mc := range meshes {
		for _, md := range methods {
			t.Run(mc.name+"/"+md.name, func(t *testing.T) {
				var ref *Result
				for _, par := range parallelismSettings {
					opt := md.opt
					opt.Parallelism = par
					res, err := PartitionMesh(context.Background(), mc.m, 12, MCTL, opt)
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = res
						continue
					}
					if res.EdgeCut != ref.EdgeCut {
						t.Errorf("parallelism %d: edge cut %d, serial %d", par, res.EdgeCut, ref.EdgeCut)
					}
					for i := range res.Part {
						if res.Part[i] != ref.Part[i] {
							t.Fatalf("parallelism %d: cell %d in part %d, serial says %d — result depends on worker count",
								par, i, res.Part[i], ref.Part[i])
						}
					}
				}
			})
		}
	}
}

// TestDualPhaseDeterministicAcrossParallelism covers the per-process fan-out
// of phase 2: the fine-domain assignment must not depend on how the
// subproblems were scheduled.
func TestDualPhaseDeterministicAcrossParallelism(t *testing.T) {
	m := mesh.Cylinder(0.002)
	var ref *DualPhaseResult
	for _, par := range parallelismSettings {
		res, err := DualPhase(context.Background(), m, 4, 4, Options{Seed: 7, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for c := range res.Domain {
			if res.Domain[c] != ref.Domain[c] {
				t.Fatalf("parallelism %d: cell %d in domain %d, serial says %d",
					par, c, res.Domain[c], ref.Domain[c])
			}
		}
	}
}

// TestTrialsDeterministicAcrossParallelism: the Trials quality loop composes
// with the fan-out (each trial is internally parallel) without losing
// reproducibility.
func TestTrialsDeterministicAcrossParallelism(t *testing.T) {
	m := mesh.Cylinder(0.002)
	var ref *Result
	for _, par := range parallelismSettings {
		res, err := PartitionMesh(context.Background(), m, 8, MCTL,
			Options{Seed: 3, Trials: 3, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range res.Part {
			if res.Part[i] != ref.Part[i] {
				t.Fatalf("parallelism %d: cell %d differs from serial", par, i)
			}
		}
	}
}

func TestDeriveSeedAddressesDistinct(t *testing.T) {
	// Sibling and cousin nodes must draw distinct seeds, and the derivation
	// must depend on the parent seed.
	seen := map[int64][2]int{}
	for first := 0; first < 32; first++ {
		for k := 1; k <= 32; k++ {
			s := deriveSeed(99, first, k)
			if prev, dup := seen[s]; dup {
				t.Fatalf("deriveSeed collision: (%d,%d) and %v", first, k, prev)
			}
			seen[s] = [2]int{first, k}
		}
	}
	if deriveSeed(1, 0, 4) == deriveSeed(2, 0, 4) {
		t.Error("deriveSeed ignores the parent seed")
	}
}

// cancelOnPerm is a randSource whose first Perm call cancels the context —
// simulating cancellation arriving exactly when a matching pass begins.
type cancelOnPerm struct {
	rng    *rand.Rand
	cancel context.CancelFunc
}

func (c *cancelOnPerm) Intn(n int) int { return c.rng.Intn(n) }
func (c *cancelOnPerm) Perm(n int) []int {
	c.cancel()
	return c.rng.Perm(n)
}

// TestCoarsenCancelLatency pins the satellite fix: when cancellation lands
// during a matching pass, coarsen must abandon that pass (within
// matchCancelStride vertices) instead of finishing the match and paying for
// a full contraction of a large graph.
func TestCoarsenCancelLatency(t *testing.T) {
	g := mesh.Cylinder(0.01).DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancelOnPerm{rng: rand.New(rand.NewSource(1)), cancel: cancel}
	h := coarsen(ctx, g, 128, src, nil, new(scratch), streamFloor(Options{}))
	defer h.close()
	if h.levels() != 1 {
		t.Fatalf("coarsen built %d levels after mid-match cancellation, want 1 (no contraction)", h.levels())
	}
	// And a cancelled match must report !ok rather than a partial matching.
	if _, _, ok := heavyEdgeMatching(ctx, g, src, nil, new(scratch)); ok {
		t.Fatal("heavyEdgeMatching reported ok on a cancelled context")
	}
}
