package store

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// openGated opens a disk store whose blob writes pass through a gatedBlob,
// so a test can hold one flush open and queue commits behind it.
func openGated(t *testing.T, dir string) (*Store, *gatedBlob) {
	t.Helper()
	db, err := newDiskBlob(dir)
	if err != nil {
		t.Fatal(err)
	}
	gb := &gatedBlob{Blob: db}
	s, err := Open(Options{Dir: dir, Blob: gb})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gb.release(nil) })
	return s, gb
}

// TestCrashMidBatchLosesOnlyUnacked is the crash-recovery satellite: a gated
// blob holds a flush open mid-flight with more commits queued behind it,
// Crash() cuts the power, and replay at reopen must show exactly the
// acknowledged history — the durable prefix byte-identical, the in-flight
// and queued tail gone, nothing in between.
func TestCrashMidBatchLosesOnlyUnacked(t *testing.T) {
	dir := t.TempDir()
	s, gb := openGated(t, dir)
	ctx := context.Background()

	// Acked: a mesh blob plus the job's submitted record, durably committed.
	mesh := []byte("TMSH durable mesh")
	meshKey := hexSum(mesh)
	req := json.RawMessage(`{"mesh":"upload","k":8}`)
	if err := s.Commit(ctx, Commit{
		Puts: []Put{{NS: NSMesh, Key: meshKey, Data: mesh}},
		Jobs: []JobRecord{{Job: "job-1", State: JobSubmitted, Kind: "partition", Req: req, MeshDigest: meshKey}},
	}); err != nil {
		t.Fatalf("durable commit: %v", err)
	}

	// Unacked: a result blob whose flush is held open at the blob write, and
	// a running transition queued behind it.
	gb.hold()
	s.CommitAsync(Commit{Puts: []Put{{NS: NSResult, Key: hexSum([]byte("req addr")), Data: []byte(`{"part":[0]}`)}}})
	gb.waitHeld(t)
	s.CommitAsync(Commit{Jobs: []JobRecord{{Job: "job-1", State: JobRunning}}})

	// A durable commit queued behind the open flush must unblock with an error.
	durableErr := make(chan error, 1)
	go func() {
		durableErr <- s.Commit(ctx, Commit{Jobs: []JobRecord{{Job: "job-2", State: JobSubmitted, Kind: "partition", Req: req}}})
	}()
	waitUntil(t, "the unacked commits to queue", func() bool { return pendingLen(s.batcher) == 2 })

	// Cut the power while the blob write is in flight: the write never
	// completes, so its flush fails and nothing queued behind it is applied.
	crashed := make(chan struct{})
	go func() { s.Crash(); close(crashed) }()
	waitUntil(t, "Crash to mark the store", s.crashed.Load)
	gb.release(errors.New("power cut mid-write"))
	<-crashed
	select {
	case err := <-durableErr:
		if err == nil {
			t.Fatal("durable commit in the crashed batch returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("durable waiter leaked through the crash")
	}
	if _, ok := s.Get(NSMesh, meshKey); ok {
		t.Fatal("Get succeeded on a crashed store")
	}

	// Replay: only the acked history survives.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s2.Close()
	got, ok := s2.Get(NSMesh, meshKey)
	if !ok || string(got) != string(mesh) {
		t.Fatalf("durable mesh lost in crash: %q, %v", got, ok)
	}
	replays := s2.JobReplays()
	if len(replays) != 1 {
		t.Fatalf("replays = %+v, want exactly job-1", replays)
	}
	r := replays[0]
	if r.ID != "job-1" || r.State != JobSubmitted || r.Kind != "partition" || r.MeshDigest != meshKey {
		t.Fatalf("job-1 replay = %+v", r)
	}
	if string(r.Req) != string(req) {
		t.Fatalf("replayed request = %s, want %s", r.Req, req)
	}
	st := s2.Stats()
	if st.ProvEntries != 1 || st.JobsPending != 1 {
		t.Fatalf("post-crash stats = %+v", st)
	}
	rep, err := s2.Verify()
	if err != nil || !rep.OK() {
		t.Fatalf("Verify after crash replay: %v %s", err, rep)
	}
}

// TestCloseFlushesPendingBatch is the shutdown-ordering satellite at the
// store level: a commit whose flush is held open and a commit queued behind
// it must both reach disk when Close runs the final drain — a drained daemon
// may not lose anything it accepted.
func TestCloseFlushesPendingBatch(t *testing.T) {
	dir := t.TempDir()
	s, gb := openGated(t, dir)
	part := []byte("TPRT pending partition")
	partKey := hexSum(part)
	gb.hold()
	s.CommitAsync(Commit{Puts: []Put{{NS: NSPart, Key: partKey, Data: part}}})
	gb.waitHeld(t)
	s.CommitAsync(Commit{Jobs: []JobRecord{{Job: "drain-1", State: JobDone, ResultKey: "abcd12"}}})
	waitUntil(t, "the journal record to queue", func() bool { return pendingLen(s.batcher) == 1 })

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	gb.release(nil)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	got, ok := s2.Get(NSPart, partKey)
	if !ok || string(got) != string(part) {
		t.Fatalf("pending partition lost across Close: %q, %v", got, ok)
	}
	replays := s2.JobReplays()
	if len(replays) != 1 || replays[0].ID != "drain-1" || replays[0].State != JobDone {
		t.Fatalf("replays after Close = %+v", replays)
	}
	rep, err := s2.Verify()
	if err != nil || !rep.OK() || rep.Entries != 1 {
		t.Fatalf("Verify: %v %s", err, rep)
	}
}

// TestCrashBetweenFlushAndNextBatch: everything flushed before the crash is
// replayable even though the log handles closed without a final sync.
func TestCrashAfterFlushKeepsFlushedState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("flushed then crashed")
	key := hexSum(data)
	if err := s.Commit(context.Background(), Commit{Puts: []Put{{NS: NSPart, Key: key, Data: data}}}); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got, ok := s2.Get(NSPart, key); !ok || string(got) != string(data) {
		t.Fatalf("flushed blob lost: %q, %v", got, ok)
	}
}
