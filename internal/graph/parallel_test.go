package graph

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestParallelismResolution(t *testing.T) {
	if got := Parallelism(4); got != 4 {
		t.Errorf("Parallelism(4) = %d", got)
	}
	if got := Parallelism(0); got < 1 {
		t.Errorf("Parallelism(0) = %d, want >= 1", got)
	}
	if got := Parallelism(-3); got != Parallelism(0) {
		t.Errorf("Parallelism(-3) = %d, want the GOMAXPROCS default", got)
	}
}

func TestPoolWidthAndNil(t *testing.T) {
	if p := NewPool(1); p != nil {
		t.Error("NewPool(1) should be the nil (serial) pool")
	}
	var p *Pool
	if p.Width() != 1 {
		t.Errorf("nil pool width = %d, want 1", p.Width())
	}
	ran := 0
	p.Fork(func() { ran++ }, func() { ran++ })
	p.RunN(3, func(int) { ran++ })
	if ran != 5 {
		t.Errorf("nil pool ran %d closures, want 5", ran)
	}
	if w := NewPool(4).Width(); w != 4 {
		t.Errorf("NewPool(4).Width() = %d", w)
	}
}

func TestPoolRunNRunsEachTaskOnce(t *testing.T) {
	p := NewPool(4)
	const n = 200
	var hits [n]atomic.Int32
	p.RunN(n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
}

// TestPoolRunNSharedCounter: the caller and the helpers pull indices from
// one counter, and every index still runs exactly once — on a free pool, with
// a RunN nested in every task of another on the same pool, and on a pool
// whose tokens are all held, where every task runs on the caller. At no
// point do more tasks run at once than the pool is wide. Run under -race.
func TestPoolRunNSharedCounter(t *testing.T) {
	for _, width := range []int{2, 3, 8} {
		p := NewPool(width)
		var active, peak atomic.Int32
		enter := func() {
			a := active.Add(1)
			for old := peak.Load(); a > old && !peak.CompareAndSwap(old, a); old = peak.Load() {
			}
		}
		leave := func() { active.Add(-1) }
		checkOnce := func(name string, hits []atomic.Int32) {
			t.Helper()
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("width %d, %s: index %d ran %d times", width, name, i, got)
				}
			}
		}

		for _, n := range []int{2, width, 5 * width, 1000} {
			hits := make([]atomic.Int32, n)
			p.RunN(n, func(i int) {
				enter()
				hits[i].Add(1)
				leave()
			})
			checkOnce("flat", hits)
		}

		const outer, inner = 17, 23
		nested := make([]atomic.Int32, outer*inner)
		p.RunN(outer, func(i int) {
			p.RunN(inner, func(j int) {
				enter()
				nested[i*inner+j].Add(1)
				leave()
			})
		})
		checkOnce("nested", nested)
		if got := peak.Load(); got > int32(width) {
			t.Fatalf("width %d: %d tasks ran at once", width, got)
		}

		// Saturated: every token is held, so no helper starts and the tasks
		// run one after another on the caller.
		for i := 0; i < cap(p.sem); i++ {
			p.sem <- struct{}{}
		}
		peak.Store(0)
		saturated := make([]atomic.Int32, 100)
		p.RunN(len(saturated), func(i int) {
			enter()
			saturated[i].Add(1)
			leave()
		})
		for i := 0; i < cap(p.sem); i++ {
			<-p.sem
		}
		checkOnce("saturated", saturated)
		if got := peak.Load(); got != 1 {
			t.Fatalf("width %d, saturated: %d tasks ran at once, want 1", width, got)
		}
	}
}

func TestPoolForkNested(t *testing.T) {
	// Deep nested forks must neither deadlock nor exceed the bound; the count
	// of leaves is the correctness check.
	p := NewPool(3)
	var leaves atomic.Int32
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		p.Fork(func() { rec(depth - 1) }, func() { rec(depth - 1) })
	}
	rec(10)
	if got := leaves.Load(); got != 1024 {
		t.Fatalf("leaves = %d, want 1024", got)
	}
}

func TestPoolBoundsCoverAndChunk(t *testing.T) {
	f := func(width uint8, nRaw uint16, minRaw uint8) bool {
		p := NewPool(1 + int(width%8))
		n := int(nRaw % 5000)
		minChunk := int(minRaw)
		bounds := p.Bounds(n, minChunk)
		if minChunk < 1 {
			minChunk = 1
		}
		if bounds[0] != 0 || bounds[len(bounds)-1] != n {
			return false
		}
		chunks := len(bounds) - 1
		if chunks > p.Width() {
			return false
		}
		for i := 0; i < chunks; i++ {
			if bounds[i+1] < bounds[i] {
				return false
			}
			if n >= minChunk && bounds[i+1]-bounds[i] < minChunk {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// And the chunking is a pure function of its inputs, never of load.
	a := NewPool(4).Bounds(1000, 64)
	b := NewPool(4).Bounds(1000, 64)
	if len(a) != len(b) {
		t.Fatal("Bounds not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Bounds not deterministic")
		}
	}
}

func graphsEqual(a, b *Graph) bool {
	if a.NCon != b.NCon || len(a.Xadj) != len(b.Xadj) || len(a.Adjncy) != len(b.Adjncy) ||
		len(a.AdjWgt) != len(b.AdjWgt) || len(a.VWgt) != len(b.VWgt) {
		return false
	}
	for i := range a.Xadj {
		if a.Xadj[i] != b.Xadj[i] {
			return false
		}
	}
	for i := range a.Adjncy {
		if a.Adjncy[i] != b.Adjncy[i] || a.AdjWgt[i] != b.AdjWgt[i] {
			return false
		}
	}
	for i := range a.VWgt {
		if a.VWgt[i] != b.VWgt[i] {
			return false
		}
	}
	return true
}

// TestContractPMatchesSerial: the sharded contraction must produce the exact
// serial graph — same vertex order, same adjacency order, same weights — at
// any pool width.
func TestContractPMatchesSerial(t *testing.T) {
	f := func(seed int64, nSmall uint8, parts uint8, width uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nSmall%60)
		g := randomGraph(rng, n, 1+int(nSmall%3))
		ncoarse := 1 + int(parts)%n
		cmap := make([]int32, n)
		for i := range cmap {
			cmap[i] = int32(i % ncoarse)
		}
		serial := g.ContractP(cmap, ncoarse, nil)
		parallel := g.ContractP(cmap, ncoarse, NewPool(2+int(width%7)))
		return graphsEqual(serial, parallel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestContractPLargeSharded exercises the multi-shard merge path (the quick
// graphs above are smaller than one shard's minimum chunk).
func TestContractPLargeSharded(t *testing.T) {
	g := Grid(128, 128)
	n := g.NumVertices()
	cmap := make([]int32, n)
	ncoarse := n / 2
	for i := range cmap {
		cmap[i] = int32(i % ncoarse)
	}
	serial := g.ContractP(cmap, ncoarse, nil)
	parallel := g.ContractP(cmap, ncoarse, NewPool(8))
	if !graphsEqual(serial, parallel) {
		t.Fatal("sharded contraction differs from serial")
	}
	if err := parallel.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSubgraphWithReusesScratch: repeated extractions through one Scratch
// must agree with the allocating path, and orig must alias the input slice
// (that aliasing is what recursive bisection's in-place split relies on).
func TestSubgraphWithReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 50, 2)
	var sc Scratch
	for trial := 0; trial < 20; trial++ {
		var vs []int32
		for i := 0; i < 50; i++ {
			if rng.Intn(2) == 0 {
				vs = append(vs, int32(i))
			}
		}
		if len(vs) == 0 {
			vs = []int32{int32(rng.Intn(50))}
		}
		want, _ := g.Subgraph(vs)
		got, orig := g.SubgraphWith(vs, &sc)
		if !graphsEqual(want, got) {
			t.Fatalf("trial %d: SubgraphWith differs from Subgraph", trial)
		}
		if &orig[0] != &vs[0] {
			t.Fatalf("trial %d: orig does not alias the input slice", trial)
		}
	}
}
