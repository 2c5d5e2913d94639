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
	if len(ks.localID) < big {
		t.Fatalf("localID only %d entries", len(ks.localID))
	}
	putKwayScratch(ks)

	small := getKwayScratch(128)
	if cap(small.localID) >= big {
		t.Fatalf("small request received the %d-entry localID — pool pinning", cap(small.localID))
	}
	putKwayScratch(small)

	again := getKwayScratch(big)
	if cap(again.localID) < big {
		t.Fatalf("big request did not reuse the pooled big arena (cap %d)", cap(again.localID))
	}
	// localID must still hold the -1-everywhere invariant after reuse.
	for i, v := range again.localID {
		if v != -1 {
			t.Fatalf("localID[%d] = %d after reuse, want -1", i, v)
		}
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
