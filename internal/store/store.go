// Package store is tempartd's durability tier: a pluggable Blob backend for
// large artifacts (uploaded meshes, encoded partitions, response payloads),
// a small in-memory index keyed by the daemon's existing content hashes, an
// append-only hash-chained provenance log whose entries embed obs run
// manifests, and a job journal that lets interrupted async jobs resume after
// a restart. All writes funnel through a Batcher, a group commit: a flush
// starts as soon as the flusher is free, and commits that arrive during a
// flush share the next one, so concurrent partition and evaluate requests
// cost one provenance-log fsync per batch, not per request.
//
// Two backends ship in-tree: memory (tests, ephemeral daemons — no
// durability) and disk (content-addressed files written with atomic rename +
// fsync, logs fsynced per batch). Verify and VerifyDir walk the chain,
// recompute every hash, and cross-check blob digests, detecting a single
// flipped byte anywhere in the committed history.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tempart/internal/obs"
)

// Options configures Open. The zero value opens an in-memory store.
type Options struct {
	// Dir is the durable root directory; empty means fully in-memory
	// (no durability, but the same provenance/index semantics).
	Dir string
	// Blob overrides the artifact backend (e.g. an object store); logs and
	// head still live under Dir (or in memory when Dir is empty).
	Blob Blob
	// NodeID, when set, stamps every provenance entry with the identity of
	// the cluster member that wrote it. The id is covered by the chain hash
	// like every other field, so a fleet's per-node chains stay individually
	// tamper-evident while remaining correlatable: a coordinator's result
	// entry and the peer entries for the subtrees it farmed out all name
	// their executing node.
	NodeID string
}

// Put is one artifact write inside a Commit: blob bytes plus the provenance
// manifest describing the run that produced them.
type Put struct {
	NS   string
	Key  string // lowercase hex; see the namespace comments in blob.go
	Data []byte
	// Manifest is embedded in the artifact's provenance entry; nil records
	// the entry without run context.
	Manifest *obs.Manifest
}

// Commit is the Batcher's unit of work: artifact writes plus job-journal
// records, applied together in one batch.
type Commit struct {
	Puts []Put
	Jobs []JobRecord
}

func (c Commit) empty() bool { return len(c.Puts) == 0 && len(c.Jobs) == 0 }

type indexMeta struct {
	size     int64
	dataHash string
}

// Stats is a snapshot of store activity since Open.
type Stats struct {
	// Puts counts artifact writes committed; DedupSkips counts writes
	// elided because the index already held the key.
	Puts       int64
	PutBytes   int64
	DedupSkips int64
	// Reads/ReadHits count Get lookups; ReadCorrupt counts blobs whose
	// bytes no longer matched their recorded digest.
	Reads       int64
	ReadHits    int64
	ReadCorrupt int64
	// BatchFlushes counts backend flushes; BatchedCommits counts commits
	// they covered (ratio = amortization factor). FlushErrors counts failed
	// flushes.
	BatchFlushes   int64
	BatchedCommits int64
	FlushErrors    int64
	// ProvEntries is the chain length; JournalRecords counts journal lines
	// appended since Open.
	ProvEntries    int64
	JournalRecords int64
	// JobsRecovered/JobsPending describe the journal replay at Open:
	// total jobs folded, and how many were non-terminal (to re-queue).
	JobsRecovered int64
	JobsPending   int64
}

// Store combines the blob backend, index, provenance chain, job journal and
// Batcher. Create with Open; all methods are safe for concurrent use.
type Store struct {
	dir     string
	node    string
	blob    Blob
	batcher *Batcher

	mu    sync.Mutex // guards index, chain, logs ordering, stats
	index map[string]indexMeta
	chain chain
	jour  appendLog
	jmem  *memoryLog // journal lines for memory stores
	stats Stats

	replays []JobReplay
	crashed atomic.Bool
}

// Open builds a Store over Options.Dir (or in memory), replaying the
// provenance log into the index and folding the job journal into the replay
// set exposed by JobReplays.
func Open(opts Options) (*Store, error) {
	s := &Store{
		dir:   opts.Dir,
		node:  opts.NodeID,
		blob:  opts.Blob,
		index: map[string]indexMeta{},
	}
	if opts.Dir == "" {
		if s.blob == nil {
			s.blob = newMemoryBlob()
		}
		pm, jm := &memoryLog{}, &memoryLog{}
		s.chain = chain{tip: genesisHash, log: pm, mem: pm}
		s.jour, s.jmem = jm, jm
	} else {
		if err := s.openDir(opts.Dir); err != nil {
			return nil, err
		}
	}
	s.stats.JobsRecovered = int64(len(s.replays))
	for i := range s.replays {
		if !terminal(s.replays[i].State) {
			s.stats.JobsPending++
		}
	}
	s.batcher = newBatcher(s.applyBatch)
	return s, nil
}

// openDir replays and repairs the on-disk state, then opens append handles.
func (s *Store) openDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if s.blob == nil {
		db, err := newDiskBlob(dir)
		if err != nil {
			return err
		}
		s.blob = db
	}

	head, err := readHead(filepath.Join(dir, provHeadName))
	if err != nil {
		return err
	}
	provPath := filepath.Join(dir, provLogName)
	raw, err := os.ReadFile(provPath)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	entries, seq, tip, keep, err := replayChain(raw, head)
	if err != nil {
		return err
	}
	// When the head trails the chain (crash between the log fsync and the
	// head replacement), the covered prefix must still match the head.
	if head != nil && head.Seq > 0 && head.Seq < seq {
		h, ok := hashAt(raw, head.Seq)
		if !ok || h != head.Hash {
			return fmt.Errorf("store: provenance head hash mismatch at seq %d", head.Seq)
		}
	}
	if keep < int64(len(raw)) {
		// Drop the partial/unverifiable tail beyond the last good entry
		// before reopening for append.
		if err := os.Truncate(provPath, keep); err != nil {
			return err
		}
	}
	for i := range entries {
		e := &entries[i]
		s.index[blobKey(e.NS, e.Key)] = indexMeta{size: e.Size, dataHash: e.DataHash}
	}
	s.stats.ProvEntries = int64(seq)
	s.chain = chain{seq: seq, tip: tip}
	if s.chain.seq > 0 {
		// Repair the head if it trailed the fsynced chain.
		if head == nil || head.Seq != seq || head.Hash != tip {
			if err := writeHead(dir, headState{Seq: seq, Hash: tip}); err != nil {
				return err
			}
		}
	}
	plog, err := openDiskLog(provPath)
	if err != nil {
		return err
	}
	s.chain.log = plog

	jourPath := filepath.Join(dir, jobsLogName)
	jraw, err := os.ReadFile(jourPath)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	s.replays, err = foldJournal(jraw)
	if err != nil {
		return err
	}
	s.jour, err = openDiskLog(jourPath)
	return err
}

func readHead(path string) (*headState, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var h headState
	if err := unmarshalHead(raw, &h); err != nil {
		return nil, fmt.Errorf("store: provenance head corrupt: %v", err)
	}
	return &h, nil
}

func writeHead(dir string, h headState) error {
	raw, err := marshalHead(h)
	if err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(dir, provHeadName), raw)
}

// Commit applies c durably: when it returns nil, every put and journal
// record is flushed and fsynced (disk backend). On an idle store it waits
// for one flush; under load, for at most the flush in progress plus its own.
func (s *Store) Commit(ctx context.Context, c Commit) error {
	if c.empty() {
		return nil
	}
	return s.batcher.submit(ctx, c, true)
}

// CommitAsync enqueues c without waiting for the flush. Use it only for
// records that are safe to lose in a crash (replayable state transitions) or
// that a later durable commit re-covers via batch ordering.
func (s *Store) CommitAsync(c Commit) {
	if c.empty() {
		return
	}
	_ = s.batcher.submit(context.Background(), c, false)
}

// Flush is a barrier: it returns once everything submitted before it is on
// stable storage.
func (s *Store) Flush(ctx context.Context) error {
	return s.batcher.submit(ctx, Commit{}, true)
}

// Get returns a committed blob, verifying its bytes against the digest
// recorded in the provenance entry. Uncommitted (still-batched) artifacts
// are not visible.
func (s *Store) Get(ns, key string) ([]byte, bool) {
	if s.crashed.Load() {
		return nil, false
	}
	s.mu.Lock()
	meta, ok := s.index[blobKey(ns, key)]
	s.stats.Reads++
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	data, err := s.blob.Get(ns, key)
	if err != nil {
		return nil, false
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != meta.dataHash {
		s.mu.Lock()
		s.stats.ReadCorrupt++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.stats.ReadHits++
	s.mu.Unlock()
	return data, true
}

// JobReplays returns the folded job journal as of Open, in first-submitted
// order. The daemon re-queues non-terminal entries and remembers terminal
// ones.
func (s *Store) JobReplays() []JobReplay {
	out := make([]JobReplay, len(s.replays))
	copy(out, s.replays)
	return out
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// applyBatch is the Batcher's sink: one call per flush, applying every
// commit in order — blob writes first (each atomic+durable), then the
// provenance appends with ONE fsync, then the atomic head replacement, then
// the journal appends with one fsync.
func (s *Store) applyBatch(commits []Commit) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed.Load() {
		return errCrashed
	}
	s.stats.BatchFlushes++
	s.stats.BatchedCommits += int64(len(commits))

	nowMS := time.Now().UnixMilli()
	var provLines, jourLines [][]byte
	// Stage chain mutations so a mid-batch blob failure doesn't desync the
	// in-memory tip from the log.
	staged := s.chain
	type idxAdd struct {
		ref  string
		meta indexMeta
	}
	var adds []idxAdd
	fail := func(err error) error {
		s.stats.FlushErrors++
		return err
	}
	for ci := range commits {
		for pi := range commits[ci].Puts {
			p := &commits[ci].Puts[pi]
			ref := blobKey(p.NS, p.Key)
			if _, dup := s.index[ref]; dup {
				s.stats.DedupSkips++
				continue
			}
			dup := false
			for _, a := range adds {
				if a.ref == ref {
					dup = true
					break
				}
			}
			if dup {
				s.stats.DedupSkips++
				continue
			}
			if err := s.blob.Put(p.NS, p.Key, p.Data); err != nil {
				return fail(fmt.Errorf("store: blob put %s/%s: %w", p.NS, p.Key, err))
			}
			sum := sha256.Sum256(p.Data)
			e := Entry{
				NS:       p.NS,
				Key:      p.Key,
				DataHash: hex.EncodeToString(sum[:]),
				Size:     int64(len(p.Data)),
				UnixMS:   nowMS,
				Node:     s.node,
				Manifest: p.Manifest,
			}
			line, err := staged.nextEntry(&e)
			if err != nil {
				return fail(err)
			}
			provLines = append(provLines, line)
			adds = append(adds, idxAdd{ref: ref, meta: indexMeta{size: e.Size, dataHash: e.DataHash}})
			s.stats.Puts++
			s.stats.PutBytes += int64(len(p.Data))
		}
		for ji := range commits[ci].Jobs {
			r := commits[ci].Jobs[ji]
			if r.UnixMS == 0 {
				r.UnixMS = nowMS
			}
			line, err := marshalJobRecord(&r)
			if err != nil {
				return fail(err)
			}
			jourLines = append(jourLines, line)
		}
	}
	for _, line := range provLines {
		if err := s.chain.log.Append(line); err != nil {
			return fail(err)
		}
	}
	if len(provLines) > 0 {
		if err := s.chain.log.Sync(); err != nil {
			return fail(err)
		}
		if s.dir != "" {
			if err := writeHead(s.dir, headState{Seq: staged.seq, Hash: staged.tip}); err != nil {
				return fail(err)
			}
		}
	}
	for _, line := range jourLines {
		if err := s.jour.Append(line); err != nil {
			return fail(err)
		}
	}
	if len(jourLines) > 0 {
		if err := s.jour.Sync(); err != nil {
			return fail(err)
		}
		s.stats.JournalRecords += int64(len(jourLines))
	}
	// Everything durable: publish the staged chain tip and index additions.
	s.chain.seq, s.chain.tip = staged.seq, staged.tip
	for _, a := range adds {
		s.index[a.ref] = a.meta
	}
	s.stats.ProvEntries = int64(s.chain.seq)
	return nil
}

// Close flushes the Batcher, fsyncs both logs, and releases the backend.
func (s *Store) Close() error {
	err := s.batcher.close(true)
	if cerr := s.chain.log.Close(); err == nil {
		err = cerr
	}
	if cerr := s.jour.Close(); err == nil {
		err = cerr
	}
	if cerr := s.blob.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash simulates a power cut for tests: the Batcher's pending commits are
// discarded (their durable waiters get an error), log handles close without
// a final sync, and every subsequent operation fails. State that a flush
// already fsynced remains on disk for a later Open.
func (s *Store) Crash() {
	s.crashed.Store(true)
	_ = s.batcher.close(false)
	if dl, ok := s.chain.log.(*diskLog); ok {
		dl.crash()
	}
	if dl, ok := s.jour.(*diskLog); ok {
		dl.crash()
	}
}
