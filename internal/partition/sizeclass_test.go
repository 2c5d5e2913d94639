package partition

import (
	"testing"

	"tempart/internal/graph"
)

// TestScratchPoolNoPinning is the pool-pinning regression test for the
// partition arenas: a paper-scale arena returned to the pool must not be
// handed to a small request (it would pin hundreds of megabytes for the
// lifetime of a kilobyte-scale job), while an equally large request must
// still reuse it.
func TestScratchPoolNoPinning(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses reuse under the race detector")
	}
	const big = 1 << 22
	sc := getScratch(big)
	sc.match = make([]int32, big)
	putScratch(sc)

	small := getScratch(64)
	if cap(small.match) >= big {
		t.Fatalf("small request received a %d-element arena — pool pinning", cap(small.match))
	}
	putScratch(small)

	again := getScratch(big)
	if cap(again.match) < big {
		t.Fatalf("big request did not reuse the pooled big arena (cap %d)", cap(again.match))
	}
	putScratch(again)
}

func TestKwayScratchPoolNoPinning(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses reuse under the race detector")
	}
	const big = 1 << 22
	ks := getKwayScratch(big)
	if len(ks.net) < big {
		t.Fatalf("net only %d entries", len(ks.net))
	}
	putKwayScratch(ks)

	small := getKwayScratch(128)
	if cap(small.net) >= big {
		t.Fatalf("small request received the %d-entry net — pool pinning", cap(small.net))
	}
	putKwayScratch(small)

	again := getKwayScratch(big)
	if cap(again.net) < big {
		t.Fatalf("big request did not reuse the pooled big arena (cap %d)", cap(again.net))
	}
	putKwayScratch(again)
}

func TestGraphScratchPoolNoPinning(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses reuse under the race detector")
	}
	// The local-id table only grows inside SubgraphWith, so grow it for real
	// against a grid graph, then check the pool's classing keeps it away from
	// small requests while an equally large request still reuses it.
	g := graph.Grid(256, 256) // 65536 vertices
	n := g.NumVertices()
	gs := getGraphScratch(n)
	sg, _ := g.SubgraphWith([]int32{0, 1, 2, 256, 257}, gs)
	if sg.NumVertices() != 5 {
		t.Fatalf("subgraph has %d vertices, want 5", sg.NumVertices())
	}
	if gs.Cap() < n {
		t.Fatalf("scratch table did not grow (cap %d, want >= %d)", gs.Cap(), n)
	}
	putGraphScratch(gs)

	small := getGraphScratch(64)
	if small.Cap() >= n {
		t.Fatalf("small request received the %d-entry table — pool pinning", small.Cap())
	}
	putGraphScratch(small)

	again := getGraphScratch(n)
	if again.Cap() < n {
		t.Fatalf("big request did not reuse the pooled table (cap %d)", again.Cap())
	}
	putGraphScratch(again)
}
