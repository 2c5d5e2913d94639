package partition

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"tempart/internal/mesh"
)

// streamingConfigs are the residency modes a partition must be byte-identical
// across: fully retained (the pre-streaming baseline) and spill with heap
// read-back. minVerts 2 forces every interior rung through the spill store
// even on test-sized meshes.
var streamingConfigs = []struct {
	name     string
	minVerts int
}{
	{"retain", 1 << 30},
	{"stream", 2},
}

// TestStreamingDeterministicAcrossParallelism pins the tentpole contract: the
// spill-always streaming hierarchy changes WHERE inactive rungs live, never
// their bytes, so every (method × parallelism × residency mode) combination
// must produce the byte-identical partition of the retained serial baseline.
// The name matches the CI race-parallel job's 'DeterministicAcrossParallelism'
// pin, so this also runs raced at GOMAXPROCS=4.
func TestStreamingDeterministicAcrossParallelism(t *testing.T) {
	m, err := mesh.ByName("CYLINDER", 0.002)
	if err != nil {
		t.Fatal(err)
	}
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	const k = 8
	for _, method := range []Method{RecursiveBisection, DirectKWay} {
		var want []byte
		for _, cfg := range streamingConfigs {
			for _, par := range []int{1, 2, 8} {
				opt := Options{
					Seed:           42,
					Parallelism:    par,
					Method:         method,
					streamMinVerts: cfg.minVerts,
					// Small CoarsenTo yields a deep hierarchy, so several
					// rungs actually round-trip through the spill store.
					CoarsenTo: 64,
				}
				res, err := Partition(context.Background(), g, k, opt)
				if err != nil {
					t.Fatalf("%v/%s/p%d: %v", method, cfg.name, par, err)
				}
				got := i32le(res.Part)
				if want == nil {
					want = got // retain/p1 is the baseline
					continue
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%v/%s/p%d: partition differs from retained serial baseline", method, cfg.name, par)
				}
			}
		}
	}
}

func i32le(xs []int32) []byte {
	out := make([]byte, 4*len(xs))
	for i, x := range xs {
		out[4*i] = byte(x)
		out[4*i+1] = byte(x >> 8)
		out[4*i+2] = byte(x >> 16)
		out[4*i+3] = byte(x >> 24)
	}
	return out
}

// TestStreamingResidentBound pins the memory property the streaming hierarchy
// exists for: live graph state during coarsening is bounded by the finest
// graph, its first contraction and the newest rung — NOT by the sum of all
// levels, which is what the retained baseline holds.
func TestStreamingResidentBound(t *testing.T) {
	m, err := mesh.ByName("CYLINDER", 0.004)
	if err != nil {
		t.Fatal(err)
	}
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	rng := rand.New(rand.NewSource(7))
	sc := getScratch(g.NumVertices())
	defer putScratch(sc)

	h := coarsen(context.Background(), g, 64, rng, nil, sc, 2)
	defer h.close()
	if h.levels() < 4 {
		t.Fatalf("hierarchy only %d levels deep; fixture too small to exercise streaming", h.levels())
	}
	if h.store == nil {
		t.Fatal("no spill store created despite minVerts=2")
	}

	var retained int64
	spilled := 0
	for i := 0; i < h.levels(); i++ {
		if h.spill[i] {
			spilled++
			retained += int64(h.refs[i].Words()) * 4
		} else if h.graphs[i] != nil {
			retained += h.graphs[i].Bytes()
		}
	}
	if spilled < h.levels()-2 {
		t.Fatalf("only %d of %d interior levels spilled", spilled, h.levels()-2)
	}

	// The high-water mark may include levels 0 and 1 plus the rung being
	// contracted (offload of i runs after push of i+1), but never the whole
	// retained hierarchy and its geometric tail.
	bound := h.graphs[0].Bytes()
	for _, i := range []int{1, 2} {
		if i < h.levels() {
			bound += levelBytes(h, i)
		}
	}
	if h.maxResident > bound {
		t.Errorf("max resident %d bytes exceeds finest+two-rungs bound %d", h.maxResident, bound)
	}
	if h.maxResident >= retained {
		t.Errorf("max resident %d not below fully retained total %d — streaming freed nothing", h.maxResident, retained)
	}
}

func levelBytes(h *hier, i int) int64 {
	if h.graphs[i] != nil {
		return h.graphs[i].Bytes()
	}
	return int64(h.refs[i].Words()) * 4
}

// TestStreamingUncoarsenSingleReload: during uncoarsening at most one spilled
// interior rung is resident at a time (the loadBuf aliasing contract of
// hier.graph depends on it).
func TestStreamingUncoarsenSingleReload(t *testing.T) {
	m, err := mesh.ByName("CUBE", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	g := m.DualGraph(mesh.DualGraphOptions{Constraints: mesh.PerLevel})
	rng := rand.New(rand.NewSource(3))
	sc := getScratch(g.NumVertices())
	defer putScratch(sc)
	h := coarsen(context.Background(), g, 64, rng, nil, sc, 2)
	defer h.close()
	for li := h.levels() - 1; li >= 1; li-- {
		_ = h.graph(li - 1)
		loaded := 0
		for i := 1; i < h.levels()-1; i++ {
			if h.spill[i] && h.graphs[i] != nil {
				loaded++
			}
		}
		if loaded > 1 {
			t.Fatalf("at level %d: %d spilled rungs resident simultaneously", li, loaded)
		}
		h.release(li - 1)
	}
}
