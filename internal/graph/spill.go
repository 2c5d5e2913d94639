package graph

import (
	"fmt"
	"os"
	"unsafe"
)

// Bytes returns the heap footprint of the graph's CSR arrays in bytes. It is
// the unit of account of the partitioner's streaming hierarchy and the
// denominator of BenchmarkPaperScale's peak-RSS ratio.
func (g *Graph) Bytes() int64 {
	return 4 * int64(len(g.Xadj)+len(g.Adjncy)+len(g.AdjWgt)+len(g.VWgt))
}

// SpillStore writes CSR graphs to an anonymous temporary file and reads them
// back byte-identically into a caller-reused heap buffer (Load). The
// multilevel partitioner uses it to keep intermediate coarse graphs out of
// the heap between coarsening and uncoarsening: the spilled bytes ARE the
// original arrays, so a reloaded graph is indistinguishable from a retained
// one and partitions stay byte-identical whether or not a level was ever
// offloaded.
//
// The backing file is unlinked at creation; the data disappears with the
// last descriptor no matter how the process exits. A SpillStore must not be
// used concurrently.
type SpillStore struct {
	f   *os.File
	off int64
}

// SpillRef addresses one spilled graph inside its store.
type SpillRef struct {
	off  int64
	n    int // vertices
	nadj int // len(Adjncy) == len(AdjWgt)
	ncon int
}

// Words returns the total number of int32 words the reference occupies.
func (r SpillRef) Words() int { return (r.n + 1) + 2*r.nadj + r.n*r.ncon }

// NewSpillStore creates a store backed by an unlinked temp file.
func NewSpillStore() (*SpillStore, error) {
	f, err := os.CreateTemp("", "tempart-spill-*")
	if err != nil {
		return nil, fmt.Errorf("graph: spill store: %w", err)
	}
	// Unlink immediately: the kernel reclaims the blocks when the descriptor
	// goes away, even on abnormal exit.
	_ = os.Remove(f.Name())
	return &SpillStore{f: f}, nil
}

// Spill appends the graph's arrays to the store and returns a reference. The
// graph itself is not modified; the caller decides when to drop it.
func (s *SpillStore) Spill(g *Graph) (SpillRef, error) {
	ref := SpillRef{off: s.off, n: g.NumVertices(), nadj: len(g.Adjncy), ncon: g.NCon}
	off := s.off
	for _, arr := range [4][]int32{g.Xadj, g.Adjncy, g.AdjWgt, g.VWgt} {
		if len(arr) == 0 {
			continue
		}
		if _, err := s.f.WriteAt(i32bytes(arr), off); err != nil {
			return SpillRef{}, fmt.Errorf("graph: spill write: %w", err)
		}
		off += 4 * int64(len(arr))
	}
	s.off = off
	return ref, nil
}

// Load reads the referenced graph back into buf (grown when too small) and
// returns the graph plus the buffer backing it. The graph's arrays alias buf,
// so the caller must not reuse buf while the graph is live; passing the same
// buffer across sequential loads amortises the allocation to the largest
// level ever loaded.
func (s *SpillStore) Load(r SpillRef, buf []int32) (*Graph, []int32, error) {
	w := r.Words()
	if cap(buf) < w {
		buf = make([]int32, w)
	}
	buf = buf[:w]
	if w > 0 {
		if _, err := s.f.ReadAt(i32bytes(buf), r.off); err != nil {
			return nil, buf, fmt.Errorf("graph: spill read: %w", err)
		}
	}
	return r.slice(buf), buf, nil
}

// WordRef addresses one spilled []int32 inside its store.
type WordRef struct {
	off int64
	n   int
}

// Len returns the number of int32 words the reference occupies.
func (r WordRef) Len() int { return r.n }

// SpillWords appends a raw int32 slice (e.g. a coarsening cmap) to the store.
func (s *SpillStore) SpillWords(ws []int32) (WordRef, error) {
	ref := WordRef{off: s.off, n: len(ws)}
	if len(ws) > 0 {
		if _, err := s.f.WriteAt(i32bytes(ws), s.off); err != nil {
			return WordRef{}, fmt.Errorf("graph: spill write: %w", err)
		}
	}
	s.off += 4 * int64(len(ws))
	return ref, nil
}

// LoadWords reads a spilled slice back into buf (grown when too small) and
// returns the slice aliasing buf. Like Load, the caller must not reuse buf
// while the returned slice is live.
func (s *SpillStore) LoadWords(r WordRef, buf []int32) ([]int32, error) {
	if cap(buf) < r.n {
		buf = make([]int32, r.n)
	}
	buf = buf[:r.n]
	if r.n > 0 {
		if _, err := s.f.ReadAt(i32bytes(buf), r.off); err != nil {
			return buf, fmt.Errorf("graph: spill read: %w", err)
		}
	}
	return buf, nil
}

// slice carves the four CSR arrays out of one backing slice.
func (r SpillRef) slice(buf []int32) *Graph {
	o := 0
	next := func(n int) []int32 {
		s := buf[o : o+n : o+n]
		o += n
		return s
	}
	return &Graph{
		Xadj:   next(r.n + 1),
		Adjncy: next(r.nadj),
		AdjWgt: next(r.nadj),
		NCon:   r.ncon,
		VWgt:   next(r.n * r.ncon),
	}
}

// Close releases the backing file.
func (s *SpillStore) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// i32bytes views an []int32 as its underlying bytes (native endianness; the
// data never leaves the machine).
func i32bytes(s []int32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}
