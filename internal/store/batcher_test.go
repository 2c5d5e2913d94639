package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// batchRecorder collects flushed batches. When hold is set, the next apply
// blocks inside the flush until the test closes it.
type batchRecorder struct {
	mu      sync.Mutex
	batches [][]Commit
	hold    chan struct{}
	held    chan struct{}
	err     error
}

func (r *batchRecorder) apply(commits []Commit) error {
	r.mu.Lock()
	cp := make([]Commit, len(commits))
	copy(cp, commits)
	r.batches = append(r.batches, cp)
	err := r.err
	hold, held := r.hold, r.held
	r.hold = nil
	r.mu.Unlock()
	if hold != nil {
		close(held)
		<-hold
	}
	return err
}

// holdNext makes the next flush block after recording its batch; the
// returned held channel closes once a flush is blocked, and closing release
// lets it finish.
func (r *batchRecorder) holdNext() (held, release chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hold, r.held = make(chan struct{}), make(chan struct{})
	return r.held, r.hold
}

func (r *batchRecorder) snapshot() [][]Commit {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]Commit, len(r.batches))
	copy(out, r.batches)
	return out
}

func oneCommit(i int) Commit {
	return Commit{Jobs: []JobRecord{{Job: fmt.Sprintf("j-%d", i), State: JobSubmitted}}}
}

func pendingLen(b *Batcher) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// waitUntil polls cond until it holds, failing the test after 5s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// gatedBlob is a Blob whose Puts block while the gate is held, so a test
// can keep one flush open and pile commits up behind it.
type gatedBlob struct {
	Blob
	mu     sync.Mutex
	gate   chan struct{} // nil: Puts pass straight through
	held   chan struct{} // closed when the first Put reaches a held gate
	parked bool
	err    error // what Puts released from the gate return
}

func (g *gatedBlob) hold() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gate, g.held, g.parked, g.err = make(chan struct{}), make(chan struct{}), false, nil
}

// waitHeld blocks until a Put is parked at the gate.
func (g *gatedBlob) waitHeld(t *testing.T) {
	t.Helper()
	g.mu.Lock()
	held := g.held
	g.mu.Unlock()
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("no Put reached the gate within 5s")
	}
}

// release opens the gate. Puts parked there return err without writing when
// it is non-nil; later Puts pass through.
func (g *gatedBlob) release(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate == nil {
		return
	}
	g.err = err
	close(g.gate)
	g.gate = nil
}

func (g *gatedBlob) Put(ns, key string, data []byte) error {
	g.mu.Lock()
	gate := g.gate
	if gate != nil && !g.parked {
		g.parked = true
		close(g.held)
	}
	g.mu.Unlock()
	if gate != nil {
		<-gate
		g.mu.Lock()
		err := g.err
		g.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return g.Blob.Put(ns, key, data)
}

func TestBatcherFlushesLoneDurableCommit(t *testing.T) {
	rec := &batchRecorder{}
	b := newBatcher(rec.apply)
	defer b.close(true)

	done := make(chan error, 1)
	go func() { done <- b.submit(context.Background(), oneCommit(0), true) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("durable commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a lone durable commit never flushed")
	}
	if batches := rec.snapshot(); len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("batches = %+v, want one batch of the lone commit", batches)
	}
}

func TestBatcherGroupsCommitsBehindRunningFlush(t *testing.T) {
	rec := &batchRecorder{}
	b := newBatcher(rec.apply)
	defer b.close(true)

	held, release := rec.holdNext()
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before close(true), which would wait on a held flush
	if err := b.submit(context.Background(), oneCommit(0), false); err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("an async commit on an idle batcher never started a flush")
	}

	// Commits 1..4 arrive while flush 0 is open; the odd ones are durable
	// and must stay blocked until the batch carrying them is applied.
	const n = 5
	var durable []chan error
	for i := 1; i < n; i++ {
		if i%2 == 0 {
			if err := b.submit(context.Background(), oneCommit(i), false); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		} else {
			done := make(chan error, 1)
			durable = append(durable, done)
			go func(i int) { done <- b.submit(context.Background(), oneCommit(i), true) }(i)
		}
		waitUntil(t, fmt.Sprintf("commit %d to queue", i), func() bool { return pendingLen(b) == i })
	}
	for _, done := range durable {
		select {
		case err := <-done:
			t.Fatalf("durable commit returned (%v) while its batch was still pending", err)
		default:
		}
	}
	unblock()
	for i, done := range durable {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("durable waiter %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("durable waiter %d never released", i)
		}
	}

	batches := rec.snapshot()
	if len(batches) != 2 || len(batches[0]) != 1 || len(batches[1]) != n-1 {
		t.Fatalf("got %d batches %+v, want [1 commit] then [%d commits]", len(batches), batches, n-1)
	}
	for i, c := range batches[1] {
		if want := fmt.Sprintf("j-%d", i+1); c.Jobs[0].Job != want {
			t.Fatalf("second batch[%d] = %s, want %s (submission order)", i, c.Jobs[0].Job, want)
		}
	}
}

func TestBatcherForceBarrierFlushesImmediately(t *testing.T) {
	rec := &batchRecorder{}
	b := newBatcher(rec.apply)
	defer b.close(true)

	for i := 0; i < 3; i++ {
		if err := b.submit(context.Background(), oneCommit(i), false); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// The barrier is an empty durable commit: when it returns, every commit
	// submitted before it has been applied, in order.
	if err := b.submit(context.Background(), Commit{}, true); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	var got []string
	for _, batch := range rec.snapshot() {
		for _, c := range batch {
			if !c.empty() {
				got = append(got, c.Jobs[0].Job)
			}
		}
	}
	if fmt.Sprint(got) != "[j-0 j-1 j-2]" {
		t.Fatalf("applied before the barrier returned: %v, want [j-0 j-1 j-2]", got)
	}
}

func TestBatcherReportsApplyError(t *testing.T) {
	rec := &batchRecorder{}
	rec.err = fmt.Errorf("disk full")
	b := newBatcher(rec.apply)
	defer b.close(true)

	if err := b.submit(context.Background(), oneCommit(0), true); err == nil || err.Error() != "disk full" {
		t.Fatalf("durable submit error = %v, want disk full", err)
	}
}

func TestBatcherSubmitAfterCloseFails(t *testing.T) {
	b := newBatcher(func([]Commit) error { return nil })
	if err := b.close(true); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := b.submit(context.Background(), oneCommit(0), true); !errors.Is(err, errClosed) {
		t.Fatalf("submit after close = %v, want errClosed", err)
	}
	if err := b.close(true); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestCommitAsyncBecomesVisible: an async commit is flushed on its own; no
// later durable commit or Flush has to carry it.
func TestCommitAsyncBecomesVisible(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	data := []byte("async only")
	key := hexSum(data)
	s.CommitAsync(Commit{Puts: []Put{{NS: NSPart, Key: key, Data: data}}})
	waitUntil(t, "the async put to become visible", func() bool {
		got, ok := s.Get(NSPart, key)
		return ok && string(got) == string(data)
	})
}

// TestFlushCoversEarlierCommits: Flush returns only once everything
// submitted before it — the flush in progress and the commits queued behind
// it — is committed.
func TestFlushCoversEarlierCommits(t *testing.T) {
	dir := t.TempDir()
	db, err := newDiskBlob(dir)
	if err != nil {
		t.Fatal(err)
	}
	gb := &gatedBlob{Blob: db}
	s := mustOpen(t, Options{Dir: dir, Blob: gb})
	t.Cleanup(func() { gb.release(nil) })

	gb.hold()
	first, second := []byte("in flight"), []byte("queued behind")
	s.CommitAsync(Commit{Puts: []Put{{NS: NSPart, Key: hexSum(first), Data: first}}})
	gb.waitHeld(t)
	s.CommitAsync(Commit{Puts: []Put{{NS: NSPart, Key: hexSum(second), Data: second}}})
	s.CommitAsync(Commit{Jobs: []JobRecord{{Job: "queued-1", State: JobDone}}})
	waitUntil(t, "both commits to queue", func() bool { return pendingLen(s.batcher) == 2 })

	flushed := make(chan error, 1)
	go func() { flushed <- s.Flush(context.Background()) }()
	waitUntil(t, "the barrier to queue", func() bool { return pendingLen(s.batcher) == 3 })
	gb.release(nil)
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatalf("Flush: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush never returned")
	}
	for _, data := range [][]byte{first, second} {
		if got, ok := s.Get(NSPart, hexSum(data)); !ok || string(got) != string(data) {
			t.Fatalf("%q not committed when Flush returned", data)
		}
	}
	if st := s.Stats(); st.JournalRecords != 1 || st.ProvEntries != 2 {
		t.Fatalf("stats after Flush = %+v", st)
	}
}

// BenchmarkBatcherCommit measures durable commits against a disk store on
// default Options: one committer at a time (each commit pays a full flush),
// and parallel committers that share flushes.
func BenchmarkBatcherCommit(b *testing.B) {
	bench := func(b *testing.B, parallel bool) {
		s, err := Open(Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		var seq int64
		var mu sync.Mutex
		next := func() int64 { mu.Lock(); defer mu.Unlock(); seq++; return seq }
		commit := func() error {
			n := next()
			return s.Commit(context.Background(), Commit{Jobs: []JobRecord{{
				Job: fmt.Sprintf("bench-%d", n), State: JobSubmitted, Kind: "partition",
			}}})
		}
		b.ResetTimer()
		if parallel {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := commit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		} else {
			for i := 0; i < b.N; i++ {
				if err := commit(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("durable-serial", func(b *testing.B) { bench(b, false) })
	b.Run("durable-parallel", func(b *testing.B) { bench(b, true) })
}
