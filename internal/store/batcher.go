package store

import (
	"context"
	"errors"
	"sync"
)

// Batcher is a group commit: one flusher goroutine applies everything
// pending in one backend flush, so the fsync cost of the provenance log, job
// journal and head replacement is paid once per batch instead of once per
// commit. A flush starts as soon as anything is pending and the flusher is
// free; commits that arrive while a flush runs go out together in the next
// one, so the batch grows with the fsync time under load and an idle store
// never waits. Durable commits block until their batch is flushed, so
// "Commit returned nil" always means "on stable storage"; async commits are
// fire-and-forget and may be lost in a crash — the daemon uses them only for
// records that are safe to replay or drop (running-state journal lines,
// artifacts re-committed durably before a response is acked).

var (
	errClosed  = errors.New("store: closed")
	errCrashed = errors.New("store: crashed (unflushed batch discarded)")
)

type batchReq struct {
	commit Commit
	done   chan error // nil for async commits
}

// Batcher runs a single flusher goroutine over a pending queue. One flusher
// serializes backend writes, which is what lets disk appends skip per-commit
// locking.
type Batcher struct {
	apply func([]Commit) error

	mu      sync.Mutex
	pending []batchReq
	closed  bool
	lastErr error

	// kick holds at most one wake-up: a submit that finds it full knows the
	// flusher has yet to take the pending queue, so its commit rides along.
	kick    chan struct{}
	stop    chan struct{}
	stopped chan struct{}
	crashed bool // read by flusher only after <-stop
}

func newBatcher(apply func([]Commit) error) *Batcher {
	b := &Batcher{
		apply:   apply,
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go b.run()
	return b
}

// submit enqueues a commit. Durable submits wait for the flush covering them
// (or ctx cancellation — the commit itself still lands with a later flush).
func (b *Batcher) submit(ctx context.Context, c Commit, durable bool) error {
	var done chan error
	if durable {
		done = make(chan error, 1)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errClosed
	}
	b.pending = append(b.pending, batchReq{commit: c, done: done})
	b.mu.Unlock()
	select {
	case b.kick <- struct{}{}:
	default:
	}
	if !durable {
		return nil
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (b *Batcher) run() {
	defer close(b.stopped)
	for {
		select {
		case <-b.kick:
			b.flushOnce()
		case <-b.stop:
			b.drainFinal()
			return
		}
	}
}

// flushOnce applies everything pending in one backend batch and acks the
// durable waiters with the batch outcome.
func (b *Batcher) flushOnce() {
	b.mu.Lock()
	reqs := b.pending
	b.pending = nil
	b.mu.Unlock()
	if len(reqs) == 0 {
		return
	}
	commits := make([]Commit, len(reqs))
	for i := range reqs {
		commits[i] = reqs[i].commit
	}
	err := b.apply(commits)
	if err != nil {
		b.mu.Lock()
		b.lastErr = err
		b.mu.Unlock()
	}
	for i := range reqs {
		if reqs[i].done != nil {
			reqs[i].done <- err
		}
	}
}

// drainFinal runs at shutdown: flush the tail (Close) or discard it with an
// error (Crash).
func (b *Batcher) drainFinal() {
	if b.crashed {
		b.mu.Lock()
		reqs := b.pending
		b.pending = nil
		b.mu.Unlock()
		for i := range reqs {
			if reqs[i].done != nil {
				reqs[i].done <- errCrashed
			}
		}
		return
	}
	b.flushOnce()
}

// close stops the flusher; flush=false simulates a crash (pending commits
// are discarded and their waiters unblocked with errCrashed). Idempotent.
func (b *Batcher) close(flush bool) error {
	b.mu.Lock()
	if b.closed {
		err := b.lastErr
		b.mu.Unlock()
		<-b.stopped
		return err
	}
	b.closed = true
	b.crashed = !flush
	b.mu.Unlock()
	close(b.stop)
	<-b.stopped
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastErr
}
