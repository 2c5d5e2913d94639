package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"

	"tempart/internal/obs"
	"tempart/internal/partition"
	"tempart/internal/store"
)

// The partition store content-addresses encoded partition results (TPRT
// bytes keyed by their SHA-256) so repartition requests can warm-start from
// a prior result by hash alone, without re-uploading the assignment. The
// byte-budgeted LRU is the hot tier; with a durable store configured it
// becomes a read-through cache — an evicted (or restart-lost) part_hash is
// reloaded from the store's NSPart namespace, so warm starts survive both
// memory pressure and daemon restarts.

// storePartition encodes res, inserts it under its content hash and returns
// the hash in hex — the part_hash clients quote back to /v1/repartition. On a
// durable daemon the encoded bytes are also committed to the store (batched;
// a crash before the flush only costs a recomputable warm-start).
func (s *Server) storePartition(ctx context.Context, res *partition.Result) (string, *requestError) {
	var buf bytes.Buffer
	if err := res.Encode(&buf); err != nil {
		return "", errorf(http.StatusInternalServerError, "encoding partition result: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	s.parts.put(cacheKey(sum), buf.Bytes())
	hash := hex.EncodeToString(sum[:])
	if s.store != nil {
		span := obs.FromContext(ctx).Start("store/persist")
		span.SetStr("ns", store.NSPart)
		s.store.CommitAsync(store.Commit{Puts: []store.Put{{
			NS: store.NSPart, Key: hash, Data: buf.Bytes(),
		}}})
		span.End()
	}
	return hash, nil
}

// loadPartition resolves a part_hash back to a decoded result, reading
// through to the durable store on an LRU miss. A miss in both tiers is the
// caller's problem to surface (the hash may simply have been evicted); it is
// also counted toward the warm-start hit ratio.
func (s *Server) loadPartition(hash string) (*partition.Result, *requestError) {
	raw, err := hex.DecodeString(hash)
	if err != nil || len(raw) != 32 {
		return nil, badRequest("parent_hash %q is not a 64-character hex SHA-256", hash)
	}
	payload, _ := s.readThrough(s.parts, store.NSPart, cacheKey(raw))
	if payload == nil {
		s.metrics.parentMisses.Inc()
		return nil, errorf(http.StatusNotFound, "no stored partition with hash %s (expired or never computed here); "+
			"re-partition or supply the assignment inline via \"parent\"", hash)
	}
	s.metrics.parentHits.Inc()
	res, derr := partition.DecodeResult(bytes.NewReader(payload))
	if derr != nil {
		return nil, errorf(http.StatusInternalServerError, "stored partition %s is corrupt: %v", hash, derr)
	}
	return res, nil
}
