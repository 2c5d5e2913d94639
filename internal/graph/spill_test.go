package graph

import (
	"testing"
)

func spillFixture(seed int32) *Graph {
	g := Grid(17, 13) // non-power-of-two sizes exercise alignment padding
	for i := range g.AdjWgt {
		g.AdjWgt[i] = 1 + (int32(i)+seed)%7
	}
	for i := range g.VWgt {
		g.VWgt[i] = 1 + (int32(i)*3+seed)%5
	}
	return g
}

// TestSpillRoundTrip pins the byte-exactness contract of the spill store:
// the reloaded graph must equal the original array for array — adjacency
// ORDER included, because FM refinement outcomes depend on it.
func TestSpillRoundTrip(t *testing.T) {
	s, err := NewSpillStore()
	if err != nil {
		t.Fatalf("NewSpillStore: %v", err)
	}
	defer s.Close()

	graphs := []*Graph{spillFixture(0), spillFixture(3), spillFixture(11)}
	refs := make([]SpillRef, len(graphs))
	for i, g := range graphs {
		r, err := s.Spill(g)
		if err != nil {
			t.Fatalf("Spill(%d): %v", i, err)
		}
		refs[i] = r
	}

	var buf []int32
	for i, g := range graphs {
		got, newBuf, err := s.Load(refs[i], buf)
		if err != nil {
			t.Fatalf("Load(%d): %v", i, err)
		}
		buf = newBuf
		if !graphsEqual(g, got) {
			t.Fatalf("level %d: reloaded graph differs from original", i)
		}
	}
}

func TestGraphBytes(t *testing.T) {
	g := Grid(4, 4)
	want := 4 * int64(len(g.Xadj)+len(g.Adjncy)+len(g.AdjWgt)+len(g.VWgt))
	if got := g.Bytes(); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
}
