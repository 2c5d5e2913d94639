package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tempart/internal/obs"
	"tempart/internal/store"
)

// This file wires the durability tier (internal/store) through the job
// machinery. With Config.Store set the daemon becomes restart-safe:
//
//   - uploaded meshes and successful partition/repartition payloads are
//     persisted content-addressed, with a provenance entry embedding the run
//     manifest, BEFORE the response is acknowledged;
//   - async jobs journal their lifecycle (submitted durable-before-202,
//     running/terminal batched), so a daemon restarted over the same
//     directory re-queues whatever never reached a terminal state and
//     remembers what did;
//   - the in-memory LRUs become read-through caches over the store: a result
//     or parent partition evicted from RAM (or lost to a restart) is served
//     from disk and re-warmed.
//
// Without a store every function here is a cheap nil check — the daemon
// behaves exactly as before.

// journalSubmit makes an async submission durable before the 202 goes out:
// the submitted record (with the full request JSON) and, for uploads, the
// mesh blob, in one durable commit. An error means the caller must NOT
// acknowledge the job.
func (s *Server) journalSubmit(ctx context.Context, j *job) error {
	if s.store == nil {
		return nil
	}
	if !j.journaled.CompareAndSwap(false, true) {
		return nil // already journaled (duplicate async submit joining a flight)
	}
	raw, err := json.Marshal(j.req)
	if err == nil {
		m := &j.req.base().meshRef
		err = s.store.Commit(ctx, store.Commit{Puts: s.meshPuts(m), Jobs: []store.JobRecord{{
			Job: j.id, State: store.JobSubmitted, Kind: j.req.kind(), Req: raw, MeshDigest: m.digestHex(),
		}}})
	}
	if err != nil {
		j.journaled.Store(false)
	}
	return err
}

// journalState appends one lifecycle transition for a journaled job. These
// records are batched without waiting: losing one in a crash only means the
// job replays from an earlier state and re-runs idempotently (results are
// content-addressed, so a re-run dedups).
func (s *Server) journalState(j *job, state, errMsg string) {
	if s.store == nil || !j.journaled.Load() {
		return
	}
	s.store.CommitAsync(store.Commit{Jobs: []store.JobRecord{{
		Job: j.id, State: state, Error: errMsg,
	}}})
}

// persistOutcome makes a successful job durable before its waiters see it:
// the response payload (and, for uploads, the mesh blob) plus — for
// journaled async jobs — the done record naming the result, all in one
// durable commit. A persist failure fails the job: the daemon never
// acknowledges a result it could lose.
//
// Traced (?debug=trace) jobs are skipped: their payload embeds a per-request
// debug block under the same content address as the canonical result, and
// persisting it would poison the read-through path for everyone else.
func (s *Server) persistOutcome(j *job, payload []byte) *requestError {
	if s.store == nil || j.noCache {
		return nil
	}
	span := obs.FromContext(j.ctx).Start("store/persist")
	defer span.End()
	key := j.key.hex()
	c := store.Commit{Puts: append([]store.Put{{
		NS: store.NSResult, Key: key, Data: payload, Manifest: s.resultManifest(j),
	}}, s.meshPuts(&j.req.base().meshRef)...)}
	if j.journaled.Load() {
		c.Jobs = []store.JobRecord{{Job: j.id, State: store.JobDone, ResultKey: key}}
	}
	if err := s.store.Commit(j.ctx, c); err != nil {
		return errorf(http.StatusInternalServerError, "persisting result: %v", err)
	}
	return nil
}

// resultManifest is the provenance context of a persisted payload: enough to
// reproduce the run (mesh identity, k, strategy, seed, method) plus the
// phase/counter rollup when the job was traced. On a fleet member it also
// names the executing node, which is what lets a coordinator's result and
// the subtree entries scattered across peers be correlated into one
// cross-node provenance trail.
func (s *Server) resultManifest(j *job) *obs.Manifest {
	m := obs.NewManifest("tempartd")
	m.Node = s.cfg.NodeID
	m.Inputs["job"] = j.id
	if id := j.req.base().requestID; id != "" {
		// The request id that created the job, so one client exchange can be
		// chased through access logs, traces and provenance on every node it
		// touched.
		m.Inputs["request_id"] = id
	}
	m.Inputs["kind"] = j.req.kind()
	j.req.describe(m.Inputs)
	m.Metrics["elapsed_seconds"] = j.elapsed.Seconds()
	m.Finish(j.rec)
	return m
}

// replayRequest rebuilds a journaled request through the codec's JSON path,
// re-attaching an upload's mesh from its stored blob before validating.
func (s *Server) replayRequest(r store.JobReplay) (jobRequest, error) {
	req, err := parseRequest(r.Kind, "application/json", nil, r.Req)
	if err == nil && r.MeshDigest != "" {
		raw, ok := s.store.Get(store.NSMesh, r.MeshDigest)
		if !ok {
			return nil, fmt.Errorf("mesh blob %s missing from store", r.MeshDigest)
		}
		req.base().meshRef, err = uploadedMesh(raw)
	}
	if err == nil {
		err = req.validate()
	}
	if err != nil {
		return nil, err
	}
	return req, nil
}

// recoverJobs folds the store's job journal at startup: terminal jobs are
// re-registered so /v1/jobs keeps answering for them across the restart
// (done jobs serve their payload straight from the store), and non-terminal
// jobs — interrupted by whatever killed the previous process — are re-queued
// under their original ids. Runs before the server is marked ready.
func (s *Server) recoverJobs() {
	if s.store == nil {
		return
	}
	var maxSeq int64
	for _, r := range s.store.JobReplays() {
		if n := trailingSeq(r.ID); n > maxSeq {
			maxSeq = n
		}
		req, err := s.replayRequest(r)
		if err != nil {
			// The journal outlived whatever it referenced (evicted blob,
			// incompatible request schema). Surface the job as failed rather
			// than dropping it silently.
			s.registerReplayed(r, nil, jobFailed, nil, fmt.Sprintf("replay failed: %v", err))
			continue
		}
		switch r.State {
		case store.JobDone:
			payload, ok := s.store.Get(store.NSResult, r.ResultKey)
			if !ok {
				s.registerReplayed(r, req, jobFailed, nil, "replayed result blob missing")
				continue
			}
			s.registerReplayed(r, req, jobDone, payload, "")
			s.cache.put(req.key(), payload)
		case store.JobFailed:
			s.registerReplayed(r, req, jobFailed, nil, r.Error)
		case store.JobCancelled:
			s.registerReplayed(r, req, jobCancelled, nil, r.Error)
		default: // submitted or running: the restart interrupted it
			s.requeueJob(r, req)
		}
	}
	// New job ids must not collide with replayed ones.
	for {
		cur := s.seq.Load()
		if cur >= maxSeq || s.seq.CompareAndSwap(cur, maxSeq) {
			break
		}
	}
}

// registerReplayed installs a terminal job from the journal so job views
// survive the restart. req may be nil when the request itself could not be
// rebuilt (the view then loses its mesh/k/strategy fields but keeps the
// outcome).
func (s *Server) registerReplayed(r store.JobReplay, req jobRequest, st jobState, payload []byte, errMsg string) {
	if req == nil {
		req = &PartitionRequest{}
	}
	j := s.newJob(r.ID, req.key(), req, replayCreated(r))
	j.cancel()
	j.payload = payload
	j.errMsg = errMsg
	switch st {
	case jobDone:
		j.status = http.StatusOK
	case jobCancelled:
		j.status = statusClientClosedRequest
	default:
		j.status = http.StatusInternalServerError
	}
	j.setState(st)
	j.journaled.Store(true)
	close(j.done)
	s.mu.Lock()
	s.rememberJob(j)
	s.mu.Unlock()
}

// requeueJob re-admits an interrupted job under its original id. The journal
// itself holds the job's reference: nobody releases it, so the job runs to a
// terminal state (and journals it) even with no client polling.
func (s *Server) requeueJob(r store.JobReplay, req jobRequest) {
	j := s.newJob(r.ID, req.key(), req, replayCreated(r))
	j.journaled.Store(true)
	s.mu.Lock()
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		j.cancel()
		s.registerReplayed(r, req, jobFailed, nil, "re-queue after restart: admission queue full")
		s.journalState(j, store.JobFailed, "re-queue after restart: admission queue full")
		return
	}
	if _, exists := s.flights[j.key]; !exists {
		s.flights[j.key] = j
	}
	s.rememberJob(j)
	s.mu.Unlock()
}

func replayCreated(r store.JobReplay) time.Time {
	if r.SubmittedMS > 0 {
		return time.UnixMilli(r.SubmittedMS)
	}
	return time.Now()
}

// trailingSeq parses the "-N" suffix of a job id ("<hex>-N").
func trailingSeq(id string) int64 {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseInt(id[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}
