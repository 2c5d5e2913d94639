// Package cluster turns tempartd into a static-membership, sharded fleet.
//
// Membership is configuration, not consensus: every node is started with the
// same `-peers` list and its own `-node-id`, and derives an identical
// consistent-hash ring from the ids alone. Content-addressed requests are
// routed to their owner shard (any node forwards, guarded against loops by
// the X-Tempartd-Forwarded header), so the fleet behaves like one daemon with
// the union of the shards' caches. Large requests go the other way: the
// owner becomes a coordinator, runs the top of the recursive-bisection tree
// locally, fans the independent subtrees out to peers over POST
// /v1/internal/subtree, and stitches the returned assignments — byte-
// identical to a single-node run, because every subtree's RNG stream is a
// pure function of the root seed and the subtree's position in the tree
// (internal/partition's per-node seed derivation).
//
// Failure handling is local and conservative: per-peer circuit breakers with
// bounded retry/backoff, local recompute as the universal fallback (any
// subtree a peer fails to return is recomputed by the coordinator, with an
// optional hedge that races the recompute against a slow peer), and
// tempartd_cluster_* metrics over all of it. Losing a peer therefore never
// fails a client request — it only costs the latency the peer would have
// absorbed.
package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Node is one fleet member: a stable id (the ring hashes ids, so renaming a
// node moves its shard) and the base URL peers reach it on.
type Node struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Options configures a cluster member. Zero values take the documented
// defaults.
type Options struct {
	// NodeID is this node's identity; it must appear in Peers.
	NodeID string
	// Peers is the full static membership, this node included (its own URL
	// may be empty — a node never dials itself). Every member must be
	// started with the same list or the rings diverge.
	Peers []Node
	// VirtualNodes is the number of ring points per member. Default 64.
	VirtualNodes int
	// FanoutMinCells gates coordinator mode: requests over meshes with at
	// least this many cells are decomposed across the fleet instead of
	// computed on one node. Default 65536.
	FanoutMinCells int
	// FanoutSubtrees overrides how many independent subtrees a coordinator
	// carves out; 0 means one per healthy member (self included).
	FanoutSubtrees int
	// BreakerThreshold opens a peer's circuit after this many consecutive
	// transport failures. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting a
	// half-open probe. Default 5s.
	BreakerCooldown time.Duration
	// RetryAttempts bounds the dials per peer operation (transport errors
	// only — an HTTP response, whatever its status, is never retried).
	// Default 2.
	RetryAttempts int
	// RetryBackoff is the wait between attempts, doubling each retry.
	// Default 50ms.
	RetryBackoff time.Duration
	// ProbeTimeout bounds a peer cache probe. Default 2s.
	ProbeTimeout time.Duration
	// CallTimeout bounds a forwarded request or subtree RPC. Default 2m.
	CallTimeout time.Duration
	// HedgeDelay, when positive, starts a local recompute of a fanned-out
	// subtree if its peer has not answered within the delay; the first
	// result wins (both are byte-identical, so either is safe to commit).
	// 0 disables hedging: the local recompute runs only after the peer
	// definitively fails.
	HedgeDelay time.Duration
	// Transport overrides the HTTP transport (tests).
	Transport http.RoundTripper
}

func (o Options) withDefaults() Options {
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = 64
	}
	if o.FanoutMinCells <= 0 {
		o.FanoutMinCells = 65536
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 2 * time.Minute
	}
	return o
}

// Cluster is one member's view of the fleet: the shared ring, the peer set,
// per-peer breakers, and the client machinery. Safe for concurrent use.
type Cluster struct {
	opts  Options
	self  Node
	nodes []Node // full membership, sorted by id
	peers []Node // nodes minus self, sorted by id
	ring  *ring

	client  *http.Client
	metrics *metricsSet

	mu       sync.Mutex
	breakers map[string]*breaker
}

// New validates the membership and builds this node's view of the fleet.
func New(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	if opts.NodeID == "" {
		return nil, fmt.Errorf("cluster: node id is empty")
	}
	if len(opts.Peers) < 2 {
		return nil, fmt.Errorf("cluster: membership has %d nodes, want >= 2 (run without -peers for single-node)", len(opts.Peers))
	}
	nodes := append([]Node(nil), opts.Peers...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	var self *Node
	seen := map[string]bool{}
	for i := range nodes {
		if nodes[i].ID == "" {
			return nil, fmt.Errorf("cluster: peer %d has an empty id", i)
		}
		if seen[nodes[i].ID] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", nodes[i].ID)
		}
		seen[nodes[i].ID] = true
		if nodes[i].ID == opts.NodeID {
			self = &nodes[i]
		}
	}
	if self == nil {
		return nil, fmt.Errorf("cluster: node id %q is not in the peer list", opts.NodeID)
	}
	c := &Cluster{
		opts:     opts,
		self:     *self,
		nodes:    nodes,
		ring:     buildRing(nodes, opts.VirtualNodes),
		breakers: map[string]*breaker{},
	}
	for _, n := range nodes {
		if n.ID == opts.NodeID {
			continue
		}
		if n.URL == "" {
			return nil, fmt.Errorf("cluster: peer %q has no URL", n.ID)
		}
		c.peers = append(c.peers, n)
		c.breakers[n.ID] = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	c.client = &http.Client{Transport: opts.Transport}
	c.metrics = newMetricsSet(c)
	return c, nil
}

// Owner maps a content address onto the member that owns its shard. Every
// node computes the same answer from the same membership.
func (c *Cluster) Owner(key [32]byte) Node {
	return c.nodes[c.ring.owner(key)]
}

// OwnsSelf reports whether this node owns the address.
func (c *Cluster) OwnsSelf(key [32]byte) bool {
	return c.Owner(key).ID == c.self.ID
}

// FanoutMinCells exposes the coordinator-mode gate for the server.
func (c *Cluster) FanoutMinCells() int { return c.opts.FanoutMinCells }

// breakerFor returns the peer's breaker (nil for unknown ids, including
// self — callers never dial those).
func (c *Cluster) breakerFor(id string) *breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breakers[id]
}

// PeerAvailable reports whether the peer's breaker would currently admit a
// call (closed, or open with the cooldown elapsed). It does not consume the
// half-open probe slot — planning code uses it; the call path itself goes
// through allow().
func (c *Cluster) PeerAvailable(id string) bool {
	b := c.breakerFor(id)
	return b != nil && b.available()
}

// healthyPeers returns the peers currently worth dialing, in id order.
func (c *Cluster) healthyPeers() []Node {
	out := make([]Node, 0, len(c.peers))
	for _, p := range c.peers {
		if c.PeerAvailable(p.ID) {
			out = append(out, p)
		}
	}
	return out
}

// HealthyPeerCount reports how many peers are currently worth dialing.
func (c *Cluster) HealthyPeerCount() int { return len(c.healthyPeers()) }
