package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tempart/internal/obs"
)

func hexSum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func commitBlob(t *testing.T, s *Store, ns string, data []byte) string {
	t.Helper()
	key := hexSum(data)
	man := obs.NewManifest("store-test")
	man.Inputs["ns"] = ns
	if err := s.Commit(context.Background(), Commit{Puts: []Put{{NS: ns, Key: key, Data: data, Manifest: man}}}); err != nil {
		t.Fatalf("Commit(%s): %v", ns, err)
	}
	return key
}

func TestRoundTripMemoryAndDisk(t *testing.T) {
	for _, backend := range []string{"memory", "disk"} {
		t.Run(backend, func(t *testing.T) {
			opts := Options{}
			if backend == "disk" {
				opts.Dir = t.TempDir()
			}
			s := mustOpen(t, opts)
			mesh := []byte("TMSH fake mesh bytes")
			part := []byte("TPRT fake partition")
			mk := commitBlob(t, s, NSMesh, mesh)
			pk := commitBlob(t, s, NSPart, part)

			for _, tc := range []struct {
				ns, key string
				want    []byte
			}{{NSMesh, mk, mesh}, {NSPart, pk, part}} {
				got, ok := s.Get(tc.ns, tc.key)
				if !ok || string(got) != string(tc.want) {
					t.Fatalf("Get(%s/%s) = %q, %v; want %q", tc.ns, tc.key, got, ok, tc.want)
				}
			}
			if _, ok := s.Get(NSMesh, hexSum([]byte("absent"))); ok {
				t.Fatal("Get of an uncommitted key succeeded")
			}
			rep, err := s.Verify()
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if !rep.OK() || rep.Entries != 2 || rep.VerifiedBlobs != 2 {
				t.Fatalf("Verify report = %s", rep)
			}
			st := s.Stats()
			if st.Puts != 2 || st.ProvEntries != 2 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

func TestResultKeyDiffersFromDataHash(t *testing.T) {
	// NSResult blobs are keyed by the request's content address, not by the
	// payload digest — the provenance entry must still pin the payload bytes.
	s := mustOpen(t, Options{Dir: t.TempDir()})
	payload := []byte(`{"part":[0,1,1,0]}`)
	key := hexSum([]byte("some request address"))
	if err := s.Commit(context.Background(), Commit{Puts: []Put{{NS: NSResult, Key: key, Data: payload}}}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	got, ok := s.Get(NSResult, key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	rep, err := s.Verify()
	if err != nil || !rep.OK() {
		t.Fatalf("Verify: %v %s", err, rep)
	}
}

func TestReopenRestoresIndexAndChain(t *testing.T) {
	dir := t.TempDir()
	var keys []string
	var blobs [][]byte
	{
		s := mustOpen(t, Options{Dir: dir})
		for i := 0; i < 5; i++ {
			data := []byte(fmt.Sprintf("partition %d", i))
			keys = append(keys, commitBlob(t, s, NSPart, data))
			blobs = append(blobs, data)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	s2 := mustOpen(t, Options{Dir: dir})
	for i, k := range keys {
		got, ok := s2.Get(NSPart, k)
		if !ok || string(got) != string(blobs[i]) {
			t.Fatalf("after reopen, Get(%s) = %q, %v; want %q", k, got, ok, blobs[i])
		}
	}
	if st := s2.Stats(); st.ProvEntries != 5 {
		t.Fatalf("reopened chain length = %d, want 5", st.ProvEntries)
	}
	rep, err := s2.Verify()
	if err != nil || !rep.OK() || rep.Entries != 5 {
		t.Fatalf("Verify after reopen: %v %s", err, rep)
	}
}

func TestDedupSkipsRecommit(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	data := []byte("same bytes twice")
	k1 := commitBlob(t, s, NSPart, data)
	k2 := commitBlob(t, s, NSPart, data)
	if k1 != k2 {
		t.Fatalf("content keys differ: %s vs %s", k1, k2)
	}
	st := s.Stats()
	if st.Puts != 1 || st.DedupSkips != 1 || st.ProvEntries != 1 {
		t.Fatalf("stats after duplicate commit = %+v", st)
	}
}

func TestJournalReplayFoldsStates(t *testing.T) {
	dir := t.TempDir()
	req := json.RawMessage(`{"mesh":"CYLINDER","k":4}`)
	{
		s := mustOpen(t, Options{Dir: dir})
		ctx := context.Background()
		must := func(c Commit) {
			if err := s.Commit(ctx, c); err != nil {
				t.Fatalf("Commit: %v", err)
			}
		}
		must(Commit{Jobs: []JobRecord{{Job: "a-1", State: JobSubmitted, Kind: "partition", Req: req}}})
		must(Commit{Jobs: []JobRecord{{Job: "a-1", State: JobRunning}}})
		must(Commit{Jobs: []JobRecord{{Job: "b-2", State: JobSubmitted, Kind: "partition", Req: req}}})
		must(Commit{Jobs: []JobRecord{{Job: "b-2", State: JobRunning}}})
		must(Commit{Jobs: []JobRecord{{Job: "b-2", State: JobDone, ResultKey: "cafe12"}}})
		// Out-of-order: running lands before submitted — fold must not regress.
		must(Commit{Jobs: []JobRecord{{Job: "c-3", State: JobRunning}}})
		must(Commit{Jobs: []JobRecord{{Job: "c-3", State: JobSubmitted, Kind: "repartition", Req: req}}})
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	s2 := mustOpen(t, Options{Dir: dir})
	replays := s2.JobReplays()
	if len(replays) != 3 {
		t.Fatalf("got %d replays, want 3: %+v", len(replays), replays)
	}
	byID := map[string]JobReplay{}
	for _, r := range replays {
		byID[r.ID] = r
	}
	if r := byID["a-1"]; r.State != JobRunning || r.Kind != "partition" || len(r.Req) == 0 {
		t.Fatalf("a-1 folded to %+v", r)
	}
	if r := byID["b-2"]; r.State != JobDone || r.ResultKey != "cafe12" {
		t.Fatalf("b-2 folded to %+v", r)
	}
	if r := byID["c-3"]; r.State != JobRunning || r.Kind != "repartition" {
		t.Fatalf("c-3 folded to %+v", r)
	}
	st := s2.Stats()
	if st.JobsRecovered != 3 || st.JobsPending != 2 {
		t.Fatalf("replay stats = %+v", st)
	}
}

func TestPartialTailLinesAreDropped(t *testing.T) {
	dir := t.TempDir()
	{
		s := mustOpen(t, Options{Dir: dir})
		commitBlob(t, s, NSPart, []byte("good entry"))
		if err := s.Commit(context.Background(), Commit{Jobs: []JobRecord{{Job: "x-1", State: JobSubmitted, Kind: "partition", Req: json.RawMessage(`{}`)}}}); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	// Simulate a crash mid-append: garbage partial tails on both logs.
	for _, name := range []string{provLogName, jobsLogName} {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"seq":999,"partial`); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open after partial tail: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.ProvEntries != 1 || st.JobsRecovered != 1 {
		t.Fatalf("stats after tail drop = %+v", st)
	}
	// The truncated log must accept clean appends again.
	commitBlob(t, s2, NSPart, []byte("post-repair entry"))
	rep, err := s2.Verify()
	if err != nil || !rep.OK() || rep.Entries != 2 {
		t.Fatalf("Verify after repair: %v %s", err, rep)
	}
}

func TestConcurrentCommitsKeepChainConsistent(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := []byte(fmt.Sprintf("concurrent blob %d", i))
			errs[i] = s.Commit(context.Background(), Commit{Puts: []Put{{NS: NSPart, Key: hexSum(data), Data: data}}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	rep, err := s.Verify()
	if err != nil || !rep.OK() || rep.Entries != n {
		t.Fatalf("Verify: %v %s", err, rep)
	}
	st := s.Stats()
	if st.Puts != n || st.ProvEntries != n {
		t.Fatalf("stats after concurrent commits = %+v", st)
	}
	if st.BatchFlushes > st.BatchedCommits {
		t.Fatalf("more flushes than commits: %d > %d", st.BatchFlushes, st.BatchedCommits)
	}
}

func TestManifestEmbeddedInProvenance(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	man := obs.NewManifest("tempartd")
	man.Inputs["strategy"] = "MC_TL"
	data := []byte("artifact with manifest")
	if err := s.Commit(context.Background(), Commit{Puts: []Put{{NS: NSPart, Key: hexSum(data), Data: data, Manifest: man}}}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, provLogName))
	if err != nil {
		t.Fatal(err)
	}
	var e Entry
	if err := json.Unmarshal(raw[:len(raw)-1], &e); err != nil {
		t.Fatalf("entry unparsable: %v", err)
	}
	if e.Manifest == nil || e.Manifest.Tool != "tempartd" || e.Manifest.Inputs["strategy"] != "MC_TL" {
		t.Fatalf("manifest not embedded: %+v", e.Manifest)
	}
}
