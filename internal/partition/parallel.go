package partition

import (
	"math/rand"
	"sync"

	"tempart/internal/graph"
)

// deriveSeed derives a subtree's RNG seed from its parent's seed and the
// subtree's (firstPart, k) coordinates via a splitmix64-style mix. Every node
// of the recursive-bisection tree is uniquely addressed by (firstPart, k), so
// the seed of any node is a pure function of the root seed and the node's
// path — never of scheduling — which is what keeps parallel fan-out
// bit-identical to serial execution for a given Options.Seed.
func deriveSeed(parent int64, firstPart, k int) int64 {
	z := uint64(parent) ^ (uint64(uint32(firstPart))*0x9E3779B97F4A7C15 ^
		uint64(uint32(k))*0xBF58476D1CE4E5B9)
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// scratch is the per-worker buffer arena of the multilevel pipeline. Every
// O(n) working array that used to be allocated per bisection node, per FM
// pass or per matching sweep lives here instead; workers take an arena from
// the pool at each recursion node and return it before fanning out, so the
// pool holds at most one arena per concurrently active node. Buffers only
// ever grow within an arena; the pools are size-classed (graph.SizedPool),
// so an arena grown by a paper-scale request is never handed to a small one.
type scratch struct {
	split []int32 // stable-partition spill buffer (recursiveBisect)
	match []int32 // heavy-edge matching state
	pref  []int32 // precomputed heaviest-neighbour candidates
	order []int32 // heavy-edge matching visit order (Perm)

	// rng is the node's random source, reseeded per node (seeded): one
	// generator per arena instead of a fresh one, and its seeding, per node.
	rng *rand.Rand

	bis bisection // the one live bisection (newBisection)

	// FM refinement state (refineBisection).
	fm       fmState
	locked   []bool
	moves    []int32
	moveGain []int32        // gain of moves[i] at the moment it moved
	buckets  [2]gainBuckets // one per move direction; growBisection's frontier is buckets[0]
	balCands []balCand      // forceBalance candidates

	// Initial-bisection trial state (initialBisection): the graph's shared
	// trial state, seed vertices already tried at this node, each first
	// sweep's end vertex's farthest vertex (-1 until swept), the kept
	// trials' records and packed grown assignments, the packed assignment
	// of the trial at hand, the candidate and best assignments, BFS buffers.
	trial      trialGraph
	triedSeed  []bool
	farthest   []int32
	trialRecs  []trialRecord
	grownKept  []uint64
	grownWords []uint64
	trialWhere []int32
	bestWhere  []int32
	bfsSeen    []bool
	bfsQueue   []int32

	// Greedy-graph-growing state (growBisection).
	growGain   []int32
	growParked []int32
	growTarget []int64
}

// capacity files the arena in its pool by its largest node-sized buffer.
func (s *scratch) capacity() int {
	m := cap(s.match)
	for _, c := range [5]int{cap(s.pref), cap(s.fm.gain), cap(s.split), cap(s.growGain), cap(s.moves)} {
		if c > m {
			m = c
		}
	}
	return m
}

// scratchPools holds arenas by size class; getScratch(n) returns one sized
// for roughly n vertices, or an empty arena (buffers grow on demand).
var scratchPools graph.SizedPool[scratch]

func getScratch(n int) *scratch { return scratchPools.Get(n) }

// seeded returns the arena's random source reseeded with seed. Seeding a
// rand.Rand restarts it exactly as rand.New(rand.NewSource(seed)) would
// start, so a node draws the same stream from any arena.
func (s *scratch) seeded(seed int64) *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	return s.rng
}

func putScratch(s *scratch) { scratchPools.Put(s, s.capacity()) }

// gscPools pools graph.Scratch tables separately from the node-sized scratch
// arenas: a Subgraph local-id table is sized by the GLOBAL vertex count, so
// folding it into scratch would drag every arena into the top class during a
// large run (and pay an O(global n) -1 refill per small node). Classed by
// the global count, every recursion node of one run shares the same class.
var gscPools graph.SizedPool[graph.Scratch]

func getGraphScratch(n int) *graph.Scratch { return gscPools.Get(n) }

func putGraphScratch(gs *graph.Scratch) { gscPools.Put(gs, gs.Cap()) }

// growI32 returns buf resized to n, reallocating only when capacity is short.
// Contents are unspecified — callers must fully initialise the slice.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// growI64 is growI32 for int64 buffers.
func growI64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

// growU64 is growI32 for uint64 buffers.
func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// growBool is growI32 for bool buffers, additionally clearing the slice.
func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// forEach runs f(0) … f(n-1) on up to workers goroutines (including the
// caller). Results must not depend on execution order.
func forEach(workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 1; i < n; i++ {
		next <- i
	}
	close(next)
	f(0)
	wg.Wait()
}
