package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tempart/internal/graph"
	"tempart/internal/obs"
	"tempart/internal/partition"
)

// ErrNoPeers is returned when a fan-out is requested but every peer's
// breaker is open; callers fall back to a plain local partition.
var ErrNoPeers = errors.New("cluster: no healthy peers for fan-out")

// FanoutRequest carries everything a coordinator needs to split one
// partition request across the fleet.
type FanoutRequest struct {
	// Mesh identifies the mesh for peers (generator name or raw TMSH).
	Mesh MeshRef
	// Strategy is the canonical strategy label peers rebuild the dual graph
	// from.
	Strategy string
	// Wire is the option subset shipped to peers.
	Wire WireOptions
	// Options are the locally resolved options; they must agree with Wire on
	// every result-affecting field (Parallelism is free to differ).
	Options partition.Options
	// K is the total part count.
	K int
	// RequestID propagates the client's request id to every peer hop.
	RequestID string
	// Trace is the request's trace context, forwarded on every subtree RPC.
	// When Sampled is set, peers run their subtree with a recorder attached
	// and ship the span snapshot back; the coordinator grafts it (node-
	// stamped, clock-offset-adjusted) under its per-RPC span.
	Trace obs.TraceContext
}

// subtreeOutcome reports one fanned-out task for spans/metrics.
type subtreeOutcome struct {
	task     partition.SubtreeTask
	node     string // member that produced the committed result
	fellBack bool
}

// FanoutPartition partitions g into req.K parts by running the top of the
// recursive-bisection tree locally, shipping the frontier subtrees to peers,
// and stitching the replies. The result is byte-identical to
// partition.Partition with the same options: every subtree's RNG stream is
// derived from its tree position, never from where it executes.
//
// Peer failures never surface to the caller: any subtree a peer cannot
// deliver is recomputed locally (optionally hedged — a local recompute races
// a slow peer and the first result wins). Only context cancellation and
// graph-level errors come back as errors.
func (c *Cluster) FanoutPartition(ctx context.Context, g *graph.Graph, req FanoutRequest) (*partition.Result, error) {
	members := append([]Node{c.self}, c.healthyPeers()...)
	if len(members) < 2 {
		return nil, ErrNoPeers
	}
	span := obs.StartSpan(ctx, "cluster/fanout")
	if span.Active() {
		span.SetStr("coordinator", c.self.ID)
		span.SetInt("k", int64(req.K))
		span.SetInt("members", int64(len(members)))
		ctx = obs.ContextWithSpan(ctx, span)
	}
	defer span.End()

	target := c.opts.FanoutSubtrees
	if target <= 0 {
		target = len(members)
	}
	part, tasks, err := partition.SplitSubtrees(ctx, g, req.K, req.Options, target)
	if err != nil {
		return nil, err
	}
	// Deterministic round-robin over (FirstPart-sorted tasks, id-sorted
	// members with self first): the placement itself never affects bytes,
	// but a stable plan makes fan-out metrics and spans comparable across
	// runs.
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].FirstPart < tasks[j].FirstPart })
	plan := make(map[string]int, len(members))
	for i := range tasks {
		plan[members[i%len(members)].ID]++
	}
	c.metrics.fanouts.Inc()
	for node, n := range plan {
		c.metrics.subtrees.Add(int64(n), node)
	}
	if span.Active() {
		span.SetInt("subtrees", int64(len(tasks)))
	}

	var wg sync.WaitGroup
	errs := make([]error, len(tasks))
	outcomes := make([]subtreeOutcome, len(tasks))
	for i, t := range tasks {
		member := members[i%len(members)]
		wg.Add(1)
		go func(i int, t partition.SubtreeTask, member Node) {
			defer wg.Done()
			if member.ID == c.self.ID {
				errs[i] = partition.PartitionSubtree(ctx, g, t, req.Options, part)
				outcomes[i] = subtreeOutcome{task: t, node: c.self.ID}
				return
			}
			outcomes[i], errs[i] = c.remoteSubtree(ctx, g, t, member, req, part)
		}(i, t, member)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if span.Active() {
		for _, o := range outcomes {
			sub := span.Start("cluster/fanout/subtree")
			sub.SetInt("first_part", int64(o.task.FirstPart))
			sub.SetInt("k", int64(o.task.K))
			sub.SetInt("vertices", int64(len(o.task.Vertices)))
			sub.SetStr("node", o.node)
			if o.fellBack {
				sub.SetInt("local_fallback", 1)
			}
			sub.End()
		}
	}
	// Same cross-boundary polish Partition applies after its own recursion;
	// without it the stitched assignment would diverge from a local run.
	partition.PolishRB(ctx, g, part, req.K, req.Options)
	return partition.NewResult(g, part, req.K), nil
}

// remoteSubtree ships one task to a peer and commits the reply into part.
// On peer failure it recomputes locally; with hedging enabled the local
// recompute starts after HedgeDelay and races the peer. Exactly one commit
// happens, from this goroutine, so concurrent subtree writes stay disjoint.
func (c *Cluster) remoteSubtree(ctx context.Context, g *graph.Graph, t partition.SubtreeTask, peer Node, req FanoutRequest, part []int32) (subtreeOutcome, error) {
	wire := &SubtreeWire{
		Mesh:      req.Mesh,
		Strategy:  req.Strategy,
		Options:   req.Wire,
		FirstPart: t.FirstPart,
		K:         t.K,
		Seed:      t.Seed,
		Vertices:  PackInt32s(t.Vertices),
	}
	type remoteRes struct {
		vals []int32
		node string
		err  error
	}
	type localRes struct {
		vals []int32
		err  error
	}
	traceHeader := ""
	if req.Trace.Valid() {
		traceHeader = req.Trace.Header()
	}
	resCh := make(chan remoteRes, 1)
	go func() {
		// The per-RPC span brackets the wire round trip; a sampled peer's
		// snapshot is grafted under it, shifted so the midpoint of the
		// peer's recorded activity aligns with the midpoint of our
		// [send, recv] window (obs.ClockOffset). Grafting happens on reply
		// receipt even if a hedge wins the race — the trace then shows the
		// losing RPC too, which is the point of tracing.
		rec := obs.FromContext(ctx)
		rpc := obs.StartSpan(ctx, "cluster/fanout/rpc")
		if rpc.Active() {
			rpc.SetStr("peer", peer.ID)
			rpc.SetInt("first_part", int64(t.FirstPart))
			rpc.SetInt("vertices", int64(len(t.Vertices)))
		}
		sendNs := rec.NowNs()
		vals, reply, err := c.Subtree(ctx, peer, wire, req.RequestID, traceHeader)
		node := ""
		if reply != nil {
			node = reply.NodeID
			if err == nil && len(reply.Spans) > 0 && rec.Enabled() {
				recvNs := rec.NowNs()
				offset := obs.ClockOffset(sendNs, recvNs, reply.Spans)
				rec.Graft(rpc, reply.NodeID, reply.Spans, offset)
			}
		}
		rpc.End()
		resCh <- remoteRes{vals, node, err}
	}()
	// The hedge computes into a private buffer: the winning side commits
	// from this goroutine only, so remote replies and hedges never race on
	// the shared part array.
	hedge := func() localRes {
		priv := make([]int32, g.NumVertices())
		if err := partition.PartitionSubtree(ctx, g, t, req.Options, priv); err != nil {
			return localRes{err: err}
		}
		vals := make([]int32, len(t.Vertices))
		for i, v := range t.Vertices {
			vals[i] = priv[v]
		}
		return localRes{vals: vals}
	}
	commit := func(vals []int32) {
		for i, v := range t.Vertices {
			part[v] = vals[i]
		}
	}

	var hedgeCh chan localRes
	var hedgeTimer <-chan time.Time
	if c.opts.HedgeDelay > 0 {
		timer := time.NewTimer(c.opts.HedgeDelay)
		defer timer.Stop()
		hedgeTimer = timer.C
	}
	for {
		select {
		case r := <-resCh:
			if r.err == nil {
				commit(r.vals)
				if hedgeCh != nil {
					c.metrics.hedgedWins.Inc("peer")
				}
				return subtreeOutcome{task: t, node: r.node}, nil
			}
			// Peer definitively failed. Use the hedge if one is running,
			// else recompute inline — either way the request survives.
			c.metrics.localFallbacks.Inc()
			var lr localRes
			if hedgeCh != nil {
				lr = <-hedgeCh
			} else {
				lr = hedge()
			}
			if lr.err != nil {
				return subtreeOutcome{}, fmt.Errorf("cluster: subtree fallback after peer %s failure (%v): %w", peer.ID, r.err, lr.err)
			}
			commit(lr.vals)
			return subtreeOutcome{task: t, node: c.self.ID, fellBack: true}, nil
		case <-hedgeTimer:
			hedgeTimer = nil
			hedgeCh = make(chan localRes, 1)
			go func() { hedgeCh <- hedge() }()
		case lr := <-hedgeCh:
			if lr.err != nil {
				// A hedge only fails on context cancellation, which dooms
				// the remote call too; report the root cause.
				return subtreeOutcome{}, lr.err
			}
			commit(lr.vals)
			c.metrics.hedgedWins.Inc("local")
			return subtreeOutcome{task: t, node: c.self.ID}, nil
		}
	}
}
