package graph

import (
	"math/bits"
	"sync"
)

// Power-of-two size classing for sync.Pool'd buffers. A flat pool has a
// pinning failure mode: one paper-scale request grows a buffer to hundreds of
// megabytes, returns it, and every later kilobyte-scale request draws (and
// keeps alive) that giant buffer. Classed pools file each buffer by size and
// requests probe only their own class and the next classProbes-1 above it —
// so a request can receive a buffer at most ~2^classProbes× its size, and
// oversized buffers wait in their own class until a matching large request
// (or the GC) takes them.
//
// Both filing and probing use the CEIL class (smallest c with 2^c >= size).
// Buffers are allocated at exact sizes, not rounded up, so a buffer grown
// for an n-sized request refiles at reqClass(n) — precisely where the next
// n-sized request probes first, which is what keeps steady-state reuse at
// zero allocations. The price is that a class-c buffer may have capacity
// just under a class-c request's n; every get site grows defensively, so a
// rare undersized draw costs one reallocation, never correctness.

// sizeClasses covers capacities up to 2^30 elements — far beyond the 12.6M
// vertices of the largest paper mesh.
const sizeClasses = 31

// classProbes is how many classes (its own included) a request probes before
// allocating fresh; it bounds oversize handout at 4× while letting buffers
// that grew a little across reuses keep circulating.
const classProbes = 3

// reqClass returns the class a request of n elements starts probing at:
// the smallest c with 1<<c >= n.
func reqClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// capClass returns the class a buffer of capacity c is filed under when
// returned: reqClass(c), clamped to the table.
func capClass(c int) int {
	k := reqClass(c)
	if k >= sizeClasses {
		k = sizeClasses - 1
	}
	return k
}

// SizedPool is a set of sync.Pools, one per size class, with the discipline
// above: Put files a value under the class of its capacity, Get(n) probes
// n's class and the next classProbes-1 above it. The zero SizedPool is
// ready to use.
type SizedPool[T any] struct{ classes [sizeClasses]sync.Pool }

// Get returns a pooled value filed near n elements, or a new zero T when
// none is. A value may have less capacity than n; callers grow it.
func (p *SizedPool[T]) Get(n int) *T {
	for c, hi := reqClass(n), 0; hi < classProbes && c < sizeClasses; c, hi = c+1, hi+1 {
		if v := p.classes[c].Get(); v != nil {
			return v.(*T)
		}
	}
	return new(T)
}

// getFit is Get for callers that cannot use a value with less capacity than
// n. Only n's own class can hold one: the probe draws up to fitDraws values
// from it, keeps the first that fits and files the undersized ones back for
// smaller requests, then moves up a class. A class shared by arrays of
// nearly equal sizes (a row-offset array of n+1 words and a weight array of
// n) so costs no allocation per mismatched draw. It returns nil when no
// value fits.
func (p *SizedPool[T]) getFit(n int, capOf func(*T) int) *T {
	var small [fitDraws]any
	c := reqClass(n)
	var fit *T
	drawn := 0
	for ; drawn < fitDraws; drawn++ {
		v := p.classes[c].Get()
		if v == nil {
			break
		}
		if x := v.(*T); capOf(x) >= n {
			fit = x
			break
		}
		small[drawn] = v
	}
	for _, v := range small[:drawn] {
		p.classes[c].Put(v)
	}
	for hi := 1; fit == nil && hi < classProbes && c+hi < sizeClasses; hi++ {
		if v := p.classes[c+hi].Get(); v != nil {
			fit = v.(*T)
		}
	}
	return fit
}

// fitDraws bounds how many values getFit draws from a request's own class.
const fitDraws = 4

// Put files x under the class of capacity, its element count.
func (p *SizedPool[T]) Put(x *T, capacity int) { p.classes[capClass(capacity)].Put(x) }
