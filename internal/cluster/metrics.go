package cluster

import "tempart/internal/obs"

// metricsSet holds the tempartd_cluster_* families; each HELP text in
// newMetricsSet says what it counts. Breaker states and the membership size
// are read from the cluster when the registry is written.
type metricsSet struct {
	reg                                                *obs.Registry
	forwards, probes, peerErrors, subtrees, hedgedWins *obs.Counter[int64]
	fanouts, localFallbacks, subtreesServed            *obs.Counter[int64]
}

// newMetricsSet registers the families in their rendering order.
func newMetricsSet(c *Cluster) *metricsSet {
	r := &obs.Registry{}
	m := &metricsSet{reg: r}
	m.forwards = obs.NewCounter[int64](r, "tempartd_cluster_forwards_total", "Requests forwarded to their owner shard, by peer and outcome.", "peer", "outcome")
	m.probes = obs.NewCounter[int64](r, "tempartd_cluster_probes_total", "Owner-shard cache probes by peer and outcome (hit, miss, error).", "peer", "outcome")
	m.peerErrors = obs.NewCounter[int64](r, "tempartd_cluster_peer_errors_total", "Peer transport failures by peer and operation.", "peer", "op")
	m.fanouts = obs.NewCounter[int64](r, "tempartd_cluster_fanouts_total", "Coordinator fan-outs started (requests split across the fleet).")
	m.subtrees = obs.NewCounter[int64](r, "tempartd_cluster_fanout_subtrees_total", "Subtrees dispatched per fleet member by this coordinator (self included).", "node")
	m.hedgedWins = obs.NewCounter[int64](r, "tempartd_cluster_hedged_wins_total", "Hedged subtree races decided, by winner.", "winner")
	m.localFallbacks = obs.NewCounter[int64](r, "tempartd_cluster_local_fallbacks_total", "Peer-assigned work recomputed locally after peer failure.")
	m.subtreesServed = obs.NewCounter[int64](r, "tempartd_cluster_subtrees_served_total", "Subtree RPCs executed on this node for remote coordinators.")
	obs.NewFunc(r, "tempartd_cluster_breaker_state", "Circuit state per peer (0 closed, 1 open, 2 half-open).", "gauge", []string{"peer"},
		func(emit func(int64, ...string)) {
			for _, p := range c.peers { // already id-sorted
				emit(int64(c.breakerFor(p.ID).currentState()), p.ID)
			}
		})
	obs.NewFunc(r, "tempartd_cluster_peers", "Fleet membership size (self included).", "gauge", nil,
		func(emit func(int64, ...string)) { emit(int64(len(c.nodes))) })
	return m
}

// Metrics is the registry of the tempartd_cluster_* families; the daemon
// includes it in its /metrics.
func (c *Cluster) Metrics() *obs.Registry { return c.metrics.reg }

// CountSubtreeServed is the server-side hook: the subtree RPC handler lives
// in internal/server but the tally belongs with the rest of the fleet
// metrics.
func (c *Cluster) CountSubtreeServed() { c.metrics.subtreesServed.Inc() }
