package graph

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
)

// Parallelism resolves a requested worker count: values <= 0 mean "use every
// core" (GOMAXPROCS). It is the single interpretation point for the
// Parallelism knobs exposed by the partitioner and repartitioner.
func Parallelism(workers int) int {
	if workers <= 0 {
		return goruntime.GOMAXPROCS(0)
	}
	return workers
}

// Pool bounds the goroutines a graph or partitioning operation may spawn.
// A pool of width w holds w-1 tokens: the calling goroutine is always one of
// the workers, and helpers run only while a token is available. Acquisition
// never blocks — when the pool is saturated, work simply runs on the caller —
// so nested Fork/RunN calls cannot deadlock, and total concurrency stays
// bounded by the width no matter how deep the recursion fans out. Fork
// hands one closure to a helper; RunN starts its helpers once and lets them
// pull task indices until none is left.
//
// A nil *Pool is valid and means strictly serial execution; every method
// degrades to calling the closures inline.
type Pool struct {
	sem chan struct{}
}

// NewPool builds a pool of the given width (see Parallelism for the meaning
// of non-positive values). Width 1 returns nil: the serial pool.
func NewPool(workers int) *Pool {
	workers = Parallelism(workers)
	if workers <= 1 {
		return nil
	}
	return &Pool{sem: make(chan struct{}, workers-1)}
}

// Width returns the pool's total worker bound (1 for the nil pool).
func (p *Pool) Width() int {
	if p == nil {
		return 1
	}
	return cap(p.sem) + 1
}

// Fork runs a and b, concurrently when a worker token is free, serially (a
// then b) otherwise. It returns when both have finished. Callers are
// responsible for a and b touching disjoint state.
func (p *Pool) Fork(a, b func()) {
	if p == nil {
		a()
		b()
		return
	}
	select {
	case p.sem <- struct{}{}:
		done := make(chan struct{})
		go func() {
			defer func() {
				<-p.sem
				close(done)
			}()
			a()
		}()
		b()
		<-done
	default:
		a()
		b()
	}
}

// RunN runs f(0) … f(n-1), each exactly once, and returns when all have
// finished. The caller and up to Width()-1 helpers, one per token free at
// the call, pull indices from a shared counter until it passes n, so a batch
// of short tasks costs one goroutine per helper rather than one per task.
// On a saturated pool every task runs on the caller. Results must not
// depend on which tasks ran concurrently, nor on which goroutine ran them.
func (p *Pool) RunN(n int, f func(i int)) {
	if p == nil || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	drain := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(i)
		}
	}
	var wg sync.WaitGroup
helpers:
	for h := 1; h < n; h++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-p.sem
					wg.Done()
				}()
				drain()
			}()
		default:
			break helpers
		}
	}
	drain()
	wg.Wait()
}

// Bounds splits [0, n) into at most Width() contiguous chunks of at least
// minChunk items and returns the cut points (len = chunks+1, first 0, last
// n). The chunking is a pure function of (width, n, minChunk) — never of
// runtime load — so sharded computations stay reproducible.
func (p *Pool) Bounds(n, minChunk int) []int {
	if minChunk < 1 {
		minChunk = 1
	}
	chunks := p.Width()
	if max := n / minChunk; chunks > max {
		chunks = max
	}
	if chunks < 1 {
		chunks = 1
	}
	bounds := make([]int, chunks+1)
	for i := 1; i < chunks; i++ {
		bounds[i] = i * n / chunks
	}
	bounds[chunks] = n
	return bounds
}
