package partition

import (
	"fmt"

	"tempart/internal/graph"
)

// streamMinVertices is the default floor below which intermediate coarse
// graphs are simply retained: spilling a few-kilobyte rung buys nothing and
// costs a write+read. Tests shrink it (via Options.streamMinVerts) to force
// streaming on tiny meshes, and raise it to recover the fully retained
// baseline for byte-identity comparisons.
const streamMinVertices = 1 << 17

// streamFloor returns the vertex count below which opt's coarsening
// hierarchy keeps a rung resident. The floor never changes WHAT the
// hierarchy contains — only where the bytes of inactive rungs live — so
// partitions are byte-identical at every floor (pinned by
// TestStreamingDeterministicAcrossParallelism).
func streamFloor(opt Options) int {
	if opt.streamMinVerts != 0 {
		return opt.streamMinVerts
	}
	return streamMinVertices
}

// hier is the coarsening hierarchy with streaming residency. The finest graph
// (index 0), the coarsest rung and every cmap are always resident; once a new
// rung is pushed, the now-interior previous rung is offloaded byte-exactly to
// a SpillStore and its heap copy released. Uncoarsening walks coarse→fine and
// touches exactly one interior rung at a time, so graph(i)/release(i) reload
// each spilled rung into one reusable buffer for the duration of its
// refinement pass.
//
// Spilling is a verbatim byte round-trip of the CSR arrays — never a
// recomputation — because refinement outcomes depend on adjacency ORDER, not
// just the adjacency set: FM buckets are LIFO and gain updates walk rows in
// storage order, so a re-contracted row with the same neighbours in a
// different order would change tie-breaks and break the byte-identity
// contract.
type hier struct {
	minVerts int            // rungs smaller than this stay resident
	graphs   []*graph.Graph // graphs[i] == nil when level i is spilled out
	cmaps    [][]int32      // cmaps[i] maps level-i vertices to level-i+1; cmaps[0] unused
	refs     []graph.SpillRef
	spill    []bool // level i has a valid refs[i]
	store    *graph.SpillStore

	cmapRefs  []graph.WordRef
	cmapSpill []bool // level i's cmap has a valid cmapRefs[i]

	loadBuf []int32 // reusable heap read-back buffer
	cmapBuf []int32 // reusable cmap read-back buffer

	resident    int64 // bytes of currently resident level graphs
	maxResident int64 // high-water mark, for the residency-bound test
}

func newHier(g *graph.Graph, minVerts int) *hier {
	h := &hier{minVerts: minVerts}
	h.graphs = append(h.graphs, g)
	h.cmaps = append(h.cmaps, nil)
	h.refs = append(h.refs, graph.SpillRef{})
	h.spill = append(h.spill, false)
	h.cmapRefs = append(h.cmapRefs, graph.WordRef{})
	h.cmapSpill = append(h.cmapSpill, false)
	h.addResident(g.Bytes())
	return h
}

func (h *hier) addResident(d int64) {
	h.resident += d
	if h.resident > h.maxResident {
		h.maxResident = h.resident
	}
}

func (h *hier) levels() int            { return len(h.graphs) }
func (h *hier) coarsest() *graph.Graph { return h.graphs[len(h.graphs)-1] }

// cmap returns level i's coarsening map, reloading it if spilled. A reloaded
// cmap aliases h.cmapBuf and is only valid until the next cmap call — the
// uncoarsening loops consume each cmap fully (one projection) before moving
// to the next level, so one buffer serves the whole walk.
func (h *hier) cmap(i int) []int32 {
	if h.cmaps[i] != nil || !h.cmapSpill[i] {
		return h.cmaps[i]
	}
	if h.cmapBuf == nil {
		h.cmapBuf = make([]int32, 0, h.maxSpilledCmapLen())
	}
	cm, err := h.store.LoadWords(h.cmapRefs[i], h.cmapBuf)
	if err != nil {
		panic(fmt.Sprintf("partition: reload of spilled cmap %d failed: %v", i, err))
	}
	h.cmapBuf = cm[:0]
	return cm
}

// maxSpilledCmapLen sizes the shared read-back buffer once, to the largest
// spilled cmap, so the coarse→fine walk does not realloc at every level.
func (h *hier) maxSpilledCmapLen() int {
	m := 0
	for i, sp := range h.cmapSpill {
		if sp && h.cmapRefs[i].Len() > m {
			m = h.cmapRefs[i].Len()
		}
	}
	return m
}

// push appends the next coarser rung and offloads the rung it just made
// interior. cmap maps the vertices of the previously coarsest level onto cg.
// The new level's cmap is spilled right away: nothing reads it again until
// uncoarsening, and at paper scale the finest cmaps are tens of megabytes
// sitting under the triple-resident contraction window otherwise.
func (h *hier) push(cg *graph.Graph, cmap []int32) {
	h.graphs = append(h.graphs, cg)
	h.cmaps = append(h.cmaps, cmap)
	h.refs = append(h.refs, graph.SpillRef{})
	h.spill = append(h.spill, false)
	h.cmapRefs = append(h.cmapRefs, graph.WordRef{})
	h.cmapSpill = append(h.cmapSpill, false)
	h.addResident(cg.Bytes())
	h.spillCmap(len(h.cmaps) - 1)
	h.offload(len(h.graphs) - 2)
}

// spillCmap offloads level i's coarsening map, leaving it resident when it is
// below the streaming threshold or the store is unavailable (any error
// degrades to retention, like offload).
func (h *hier) spillCmap(i int) {
	cm := h.cmaps[i]
	if h.cmapSpill[i] || len(cm) < h.minVerts {
		return
	}
	if h.store == nil {
		st, err := graph.NewSpillStore()
		if err != nil {
			return
		}
		h.store = st
	}
	if cref, err := h.store.SpillWords(cm); err == nil {
		h.cmapRefs[i] = cref
		h.cmapSpill[i] = true
		h.cmaps[i] = nil
	}
}

// offload spills level i and drops its heap copy. The finest level and
// sub-threshold rungs stay put; any spill error degrades to retaining the
// level (correctness never depends on the store working).
func (h *hier) offload(i int) {
	if i < 1 || h.spill[i] || h.graphs[i] == nil {
		return
	}
	g := h.graphs[i]
	if g.NumVertices() < h.minVerts {
		return
	}
	if h.store == nil {
		st, err := graph.NewSpillStore()
		if err != nil {
			return
		}
		h.store = st
	}
	ref, err := h.store.Spill(g)
	if err != nil {
		return
	}
	h.refs[i] = ref
	h.spill[i] = true
	h.graphs[i] = nil
	h.addResident(-g.Bytes())
	h.spillCmap(i) // normally already spilled at push; cheap no-op then
}

// graph returns level i, reloading it if spilled. At most one reloaded
// interior rung may be live at a time: the returned graph aliases h.loadBuf,
// which release(i) reclaims.
func (h *hier) graph(i int) *graph.Graph {
	if h.graphs[i] != nil {
		return h.graphs[i]
	}
	if h.loadBuf == nil {
		// Size the shared buffer to the largest spilled rung up front: the
		// uncoarsening walk loads coarsest-first, so growing on demand would
		// realloc at nearly every level and leave a ladder of dead buffers
		// behind.
		m := 0
		for j, sp := range h.spill {
			if sp && h.refs[j].Words() > m {
				m = h.refs[j].Words()
			}
		}
		h.loadBuf = make([]int32, 0, m)
	}
	g, buf, err := h.store.Load(h.refs[i], h.loadBuf)
	if err != nil {
		// The store is an anonymous temp file we wrote moments ago; a read
		// failure means the environment is broken (disk yanked), not a
		// recoverable partitioning condition.
		panic(fmt.Sprintf("partition: reload of spilled level %d failed: %v", i, err))
	}
	h.loadBuf = buf
	h.graphs[i] = g
	h.addResident(g.Bytes())
	return g
}

// dropReloadBuffers frees the shared read-back buffers. Callers invoke it
// once the uncoarsening walk can no longer load anything — level 0 is always
// resident, so after level 1's cmap is projected the buffers (sized by the
// largest rung, the dominant one) are dead weight under the finest-level
// refinement.
func (h *hier) dropReloadBuffers() {
	h.loadBuf = nil
	h.cmapBuf = nil
}

// release drops the heap copy of a spilled interior level after its
// refinement pass. Levels that were never spilled are left resident.
func (h *hier) release(i int) {
	if i < 1 || !h.spill[i] || h.graphs[i] == nil {
		return
	}
	g := h.graphs[i]
	h.graphs[i] = nil
	h.addResident(-g.Bytes())
}

func (h *hier) close() {
	if h.store != nil {
		_ = h.store.Close()
		h.store = nil
	}
}
