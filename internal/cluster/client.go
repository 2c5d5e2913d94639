package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// ErrPeerUnavailable is returned when a peer's circuit breaker short-
// circuits a call before any dial is attempted.
var ErrPeerUnavailable = errors.New("cluster: peer circuit open")

// maxPeerResponseBytes bounds what we will buffer from a peer (a partition
// payload over a huge mesh is tens of MB; 1 GiB is a safety net, not a
// budget).
const maxPeerResponseBytes = 1 << 30

// callPeer runs fn under the peer's breaker with bounded retry/backoff.
// Only transport errors (no HTTP response at all) count as breaker failures
// and are retried; fn signals one by returning (false, err). An HTTP
// response of any status is proof of life: fn returns (true, err) and the
// error, if any, surfaces without retry.
func (c *Cluster) callPeer(ctx context.Context, peer Node, op string, fn func() (responded bool, err error)) error {
	b := c.breakerFor(peer.ID)
	if b == nil {
		return fmt.Errorf("cluster: unknown peer %q", peer.ID)
	}
	backoff := c.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt < c.opts.RetryAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		if !b.allow() {
			c.metrics.peerErrors.Inc(peer.ID, op+"/breaker")
			if lastErr != nil {
				return fmt.Errorf("%w (after %v)", ErrPeerUnavailable, lastErr)
			}
			return ErrPeerUnavailable
		}
		responded, err := fn()
		if responded {
			b.onSuccess()
			return err
		}
		b.onFailure()
		c.metrics.peerErrors.Inc(peer.ID, op)
		lastErr = err
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return fmt.Errorf("cluster: peer %s %s failed after %d attempts: %w", peer.ID, op, c.opts.RetryAttempts, lastErr)
}

// ForwardResult is the owner shard's answer, relayed verbatim to the client.
type ForwardResult struct {
	Status      int
	ContentType string
	CacheHeader string // peer's X-Tempartd-Cache, if any
	Body        []byte
}

// Forward replays a client request body against the owner shard and returns
// its response for relaying. The hop guard header carries our id so the
// owner never forwards again, and the request id and trace context ride
// along for cross-node tracing.
func (c *Cluster) Forward(ctx context.Context, peer Node, path, rawQuery, contentType, requestID, traceHeader string, body []byte) (*ForwardResult, error) {
	var out *ForwardResult
	err := c.callPeer(ctx, peer, "forward", func() (bool, error) {
		cctx, cancel := context.WithTimeout(ctx, c.opts.CallTimeout)
		defer cancel()
		url := peer.URL + path
		if rawQuery != "" {
			url += "?" + rawQuery
		}
		req, err := http.NewRequestWithContext(cctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return true, err // malformed URL: not the peer's fault, don't trip the breaker
		}
		req.Header.Set("Content-Type", contentType)
		req.Header.Set(HeaderForwarded, c.self.ID)
		if requestID != "" {
			req.Header.Set(HeaderRequestID, requestID)
		}
		if traceHeader != "" {
			req.Header.Set(HeaderTrace, traceHeader)
		}
		resp, err := c.client.Do(req)
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponseBytes))
		if err != nil {
			return false, fmt.Errorf("reading forwarded response: %w", err)
		}
		out = &ForwardResult{
			Status:      resp.StatusCode,
			ContentType: resp.Header.Get("Content-Type"),
			CacheHeader: resp.Header.Get("X-Tempartd-Cache"),
			Body:        raw,
		}
		return true, nil
	})
	if err != nil {
		c.metrics.forwards.Inc(peer.ID, "error")
		return nil, err
	}
	outcome := "relayed"
	if out.Status >= 500 {
		outcome = "peer-5xx"
	}
	c.metrics.forwards.Inc(peer.ID, outcome)
	return out, nil
}

// ProbeCache asks the owner shard whether it has a cached result for the
// content address. A miss is (nil, false, nil) — only transport trouble is
// an error. Used by nodes that are about to compute a key they do not own
// (hop-guarded forwards land here), so a warm owner cache saves the compute.
func (c *Cluster) ProbeCache(ctx context.Context, peer Node, keyHex, requestID, traceHeader string) ([]byte, bool, error) {
	var payload []byte
	var hit bool
	err := c.callPeer(ctx, peer, "probe", func() (bool, error) {
		cctx, cancel := context.WithTimeout(ctx, c.opts.ProbeTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(cctx, http.MethodGet, peer.URL+"/v1/internal/cache/"+keyHex, nil)
		if err != nil {
			return true, err
		}
		if requestID != "" {
			req.Header.Set(HeaderRequestID, requestID)
		}
		if traceHeader != "" {
			req.Header.Set(HeaderTrace, traceHeader)
		}
		resp, err := c.client.Do(req)
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponseBytes))
			if err != nil {
				return false, fmt.Errorf("reading probe response: %w", err)
			}
			payload, hit = raw, true
			return true, nil
		case http.StatusNotFound:
			return true, nil
		default:
			return true, fmt.Errorf("cluster: cache probe: peer %s returned %d", peer.ID, resp.StatusCode)
		}
	})
	if err != nil {
		c.metrics.probes.Inc(peer.ID, "error")
		return nil, false, err
	}
	if hit {
		c.metrics.probes.Inc(peer.ID, "hit")
	} else {
		c.metrics.probes.Inc(peer.ID, "miss")
	}
	return payload, hit, nil
}

// Subtree executes one bisection-subtree task on a peer and returns the
// per-vertex assignments (aligned with the wire task's vertex order) plus
// the decoded reply (executing node id, and — for sampled trace contexts —
// the peer's span snapshot for stitching).
func (c *Cluster) Subtree(ctx context.Context, peer Node, wire *SubtreeWire, requestID, traceHeader string) ([]int32, *SubtreeReply, error) {
	body, err := json.Marshal(wire)
	if err != nil {
		return nil, nil, err
	}
	var vals []int32
	var reply SubtreeReply
	err = c.callPeer(ctx, peer, "subtree", func() (bool, error) {
		cctx, cancel := context.WithTimeout(ctx, c.opts.CallTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(cctx, http.MethodPost, peer.URL+"/v1/internal/subtree", bytes.NewReader(body))
		if err != nil {
			return true, err
		}
		req.Header.Set("Content-Type", "application/json")
		if requestID != "" {
			req.Header.Set(HeaderRequestID, requestID)
		}
		if traceHeader != "" {
			req.Header.Set(HeaderTrace, traceHeader)
		}
		resp, err := c.client.Do(req)
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponseBytes))
		if err != nil {
			return false, fmt.Errorf("reading subtree response: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return true, fmt.Errorf("cluster: subtree: peer %s returned %d: %.200s", peer.ID, resp.StatusCode, raw)
		}
		reply = SubtreeReply{}
		if err := json.Unmarshal(raw, &reply); err != nil {
			return true, fmt.Errorf("cluster: subtree: decoding peer %s reply: %w", peer.ID, err)
		}
		vals, err = UnpackInt32s(reply.Parts)
		if err != nil {
			return true, err
		}
		if want := len(wire.Vertices) / 4; len(vals) != want {
			return true, fmt.Errorf("cluster: subtree: peer %s returned %d assignments for %d vertices", peer.ID, len(vals), want)
		}
		return true, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return vals, &reply, nil
}
