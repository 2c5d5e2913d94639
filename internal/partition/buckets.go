package partition

// gainBuckets is the METIS-style bucket-list priority structure of the
// partitioner: an array of doubly-linked lists indexed by gain, over vertices
// 0..n-1. Greedy graph growing, every bisection FM pass and the k-way climb
// all queue their candidates here. Because their gains are bounded by
// the maximum weighted degree of the graph, the bucket array has 2·maxKey+1
// slots and every operation — insert, remove, and the gain updates that
// dominate the refinement inner loop — is O(1). popMax walks down from a
// cached top bucket; the walk is amortised against the inserts that raised
// it.
//
// Within a bucket the order is fixed at reset. FM passes use lifo (insert at
// head), the classical FM choice: recently-touched vertices are revisited
// first, which keeps the move frontier compact. Growing uses fifo (insert at
// tail), so equal-gain frontier vertices are taken in the order they were
// reached and the grown region expands as a wavefront. Either way the
// structure is fully deterministic — iteration order is a pure function of
// the operation sequence — which is what lets the parallel refinement keep
// partitions byte-identical at every Options.Parallelism.
//
// Keys outside [-maxKey, +maxKey] are clamped to the boundary buckets:
// callers keep the exact gain in their own arrays, the buckets only order
// candidates, so clamping merely coarsens the ordering of extreme gains.
// A zero gainBuckets is ready for reset.
type gainBuckets struct {
	offset int32   // bucket index = clamp(key) + offset
	heads  []int32 // bucket index -> first vertex, -1 when empty
	tails  []int32 // bucket index -> last vertex, -1 when empty
	next   []int32 // vertex -> successor in its bucket, -1 at the tail
	prev   []int32 // vertex -> predecessor, -1 when the vertex is the head
	bucket []int32 // vertex -> its bucket index, -1 when absent
	top    int     // highest bucket index that may be non-empty
	count  int
	order  bucketOrder
}

// bucketOrder is the order in which a bucket hands out equal-key vertices.
type bucketOrder bool

const (
	lifo bucketOrder = false // most recently inserted or updated first
	fifo bucketOrder = true  // least recently inserted or updated first
)

// reset prepares the structure for n vertices with keys clamped to
// [-maxKey, +maxKey], handing out equal keys in the given order. Backing
// arrays are reused across resets and only grow.
func (b *gainBuckets) reset(n int, maxKey int32, order bucketOrder) {
	if maxKey < 0 {
		maxKey = 0
	}
	nb := 2*int(maxKey) + 1
	b.heads, b.tails = growI32(b.heads, nb), growI32(b.tails, nb)
	for i := range b.heads {
		b.heads[i], b.tails[i] = -1, -1
	}
	if cap(b.bucket) < n {
		b.realloc(n)
	}
	b.bucket = b.bucket[:n]
	b.next = b.next[:n]
	b.prev = b.prev[:n]
	for i := range b.bucket {
		b.bucket[i] = -1
	}
	b.offset = maxKey
	b.top = -1
	b.count = 0
	b.order = order
}

// realloc moves the three per-vertex arrays into one block with room for c
// vertices each, keeping their lengths and contents.
func (b *gainBuckets) realloc(c int) {
	n := len(b.bucket)
	blk := make([]int32, 3*c)
	bucket, next, prev := blk[:n:c], blk[c:c+n:2*c], blk[2*c:2*c+n]
	copy(bucket, b.bucket)
	copy(next, b.next)
	copy(prev, b.prev)
	b.bucket, b.next, b.prev = bucket, next, prev
}

// grow extends the per-vertex linkage to n vertices without disturbing the
// queued entries — used when a working set gains vertices lazily, one at a
// time, so capacity doubles when it runs out.
func (b *gainBuckets) grow(n int) {
	old := len(b.bucket)
	if n <= old {
		return
	}
	if c := cap(b.bucket); n > c {
		b.realloc(max(n, 2*c))
	}
	b.bucket, b.next, b.prev = b.bucket[:n], b.next[:n], b.prev[:n]
	for i := old; i < n; i++ {
		b.bucket[i], b.next[i], b.prev[i] = -1, -1, -1
	}
}

func (b *gainBuckets) idxOf(key int32) int32 {
	if key > b.offset {
		key = b.offset
	} else if key < -b.offset {
		key = -b.offset
	}
	return key + b.offset
}

func (b *gainBuckets) len() int { return b.count }

// contains reports whether v is currently queued.
func (b *gainBuckets) contains(v int32) bool { return b.bucket[v] >= 0 }

// insert queues v under the given key — at the head of its bucket under
// lifo, at the tail under fifo. v must not already be queued.
func (b *gainBuckets) insert(v, key int32) {
	idx := b.idxOf(key)
	b.bucket[v] = idx
	if b.order == fifo {
		t := b.tails[idx]
		b.prev[v], b.next[v] = t, -1
		if t >= 0 {
			b.next[t] = v
		} else {
			b.heads[idx] = v
		}
		b.tails[idx] = v
	} else {
		h := b.heads[idx]
		b.prev[v], b.next[v] = -1, h
		if h >= 0 {
			b.prev[h] = v
		} else {
			b.tails[idx] = v
		}
		b.heads[idx] = v
	}
	if int(idx) > b.top {
		b.top = int(idx)
	}
	b.count++
}

// remove unlinks v. v must be queued.
func (b *gainBuckets) remove(v int32) {
	idx := b.bucket[v]
	if p := b.prev[v]; p >= 0 {
		b.next[p] = b.next[v]
	} else {
		b.heads[idx] = b.next[v]
	}
	if nx := b.next[v]; nx >= 0 {
		b.prev[nx] = b.prev[v]
	} else {
		b.tails[idx] = b.prev[v]
	}
	b.bucket[v] = -1
	b.count--
}

// update moves v to the bucket of the new key (inserting it if absent); a
// vertex whose bucket does not change keeps its place in it.
func (b *gainBuckets) update(v, key int32) {
	idx := b.idxOf(key)
	if b.bucket[v] == idx {
		return
	}
	if b.bucket[v] >= 0 {
		b.remove(v)
	}
	b.insert(v, key)
}

// peekMax returns the head of the highest non-empty bucket without removing
// it.
func (b *gainBuckets) peekMax() (int32, bool) {
	if b.count == 0 {
		return -1, false
	}
	for b.top >= 0 && b.heads[b.top] < 0 {
		b.top--
	}
	return b.heads[b.top], true
}

// popMax removes and returns the head of the highest non-empty bucket.
func (b *gainBuckets) popMax() (int32, bool) {
	v, ok := b.peekMax()
	if ok {
		b.remove(v)
	}
	return v, ok
}
