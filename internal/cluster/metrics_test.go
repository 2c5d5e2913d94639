package cluster

import (
	"strings"
	"testing"

	"tempart/internal/obs"
)

// TestClusterMetricsGolden pins the full tempartd_cluster_* exposition:
// names, types, label sets, ordering. Scrape dashboards are written against
// this text — renaming a series is a breaking change and must show up here.
func TestClusterMetricsGolden(t *testing.T) {
	c, err := New(Options{NodeID: "n1", Peers: testNodes()})
	if err != nil {
		t.Fatal(err)
	}
	m := c.metrics
	m.forwards.Inc("n2", "relayed")
	m.forwards.Inc("n2", "relayed")
	m.forwards.Inc("n3", "error")
	m.probes.Inc("n2", "hit")
	m.probes.Inc("n2", "miss")
	m.peerErrors.Inc("n3", "forward")
	m.fanouts.Inc()
	m.subtrees.Add(1, "n1")
	m.subtrees.Add(2, "n2")
	m.subtrees.Add(1, "n3")
	m.hedgedWins.Inc("local")
	m.hedgedWins.Inc("peer")
	m.localFallbacks.Inc()
	c.CountSubtreeServed()
	// Trip n3's breaker so the gauge shows a non-closed state.
	b := c.breakerFor("n3")
	for i := 0; i < 3; i++ {
		b.onFailure()
	}

	got := render(t, c)

	want := `# HELP tempartd_cluster_forwards_total Requests forwarded to their owner shard, by peer and outcome.
# TYPE tempartd_cluster_forwards_total counter
tempartd_cluster_forwards_total{peer="n2",outcome="relayed"} 2
tempartd_cluster_forwards_total{peer="n3",outcome="error"} 1
# HELP tempartd_cluster_probes_total Owner-shard cache probes by peer and outcome (hit, miss, error).
# TYPE tempartd_cluster_probes_total counter
tempartd_cluster_probes_total{peer="n2",outcome="hit"} 1
tempartd_cluster_probes_total{peer="n2",outcome="miss"} 1
# HELP tempartd_cluster_peer_errors_total Peer transport failures by peer and operation.
# TYPE tempartd_cluster_peer_errors_total counter
tempartd_cluster_peer_errors_total{peer="n3",op="forward"} 1
# HELP tempartd_cluster_fanouts_total Coordinator fan-outs started (requests split across the fleet).
# TYPE tempartd_cluster_fanouts_total counter
tempartd_cluster_fanouts_total 1
# HELP tempartd_cluster_fanout_subtrees_total Subtrees dispatched per fleet member by this coordinator (self included).
# TYPE tempartd_cluster_fanout_subtrees_total counter
tempartd_cluster_fanout_subtrees_total{node="n1"} 1
tempartd_cluster_fanout_subtrees_total{node="n2"} 2
tempartd_cluster_fanout_subtrees_total{node="n3"} 1
# HELP tempartd_cluster_hedged_wins_total Hedged subtree races decided, by winner.
# TYPE tempartd_cluster_hedged_wins_total counter
tempartd_cluster_hedged_wins_total{winner="local"} 1
tempartd_cluster_hedged_wins_total{winner="peer"} 1
# HELP tempartd_cluster_local_fallbacks_total Peer-assigned work recomputed locally after peer failure.
# TYPE tempartd_cluster_local_fallbacks_total counter
tempartd_cluster_local_fallbacks_total 1
# HELP tempartd_cluster_subtrees_served_total Subtree RPCs executed on this node for remote coordinators.
# TYPE tempartd_cluster_subtrees_served_total counter
tempartd_cluster_subtrees_served_total 1
# HELP tempartd_cluster_breaker_state Circuit state per peer (0 closed, 1 open, 2 half-open).
# TYPE tempartd_cluster_breaker_state gauge
tempartd_cluster_breaker_state{peer="n2"} 0
tempartd_cluster_breaker_state{peer="n3"} 1
# HELP tempartd_cluster_peers Fleet membership size (self included).
# TYPE tempartd_cluster_peers gauge
tempartd_cluster_peers 3
`
	if got != want {
		t.Fatalf("cluster metrics exposition drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestClusterMetricsLabelValues is the regression test for label values
// that the joined-key renderer split or escaped wrongly: a peer id holding
// the old key separator rendered "%!(EXTRA ...)", and one holding a tab
// rendered Go's \t escape, which the text format does not allow. Each
// must come out as one well-formed series.
func TestClusterMetricsLabelValues(t *testing.T) {
	c, err := New(Options{NodeID: "n1", Peers: []Node{
		{ID: "n1"}, {ID: "a|b", URL: "http://a"}, {ID: "tab\tid", URL: "http://b"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	c.metrics.forwards.Inc("a|b", "relayed")
	c.metrics.forwards.Inc("tab\tid", "error")
	got := render(t, c)
	for _, want := range []string{
		`tempartd_cluster_forwards_total{peer="a|b",outcome="relayed"} 1`,
		"tempartd_cluster_forwards_total{peer=\"tab\tid\",outcome=\"error\"} 1",
		`tempartd_cluster_breaker_state{peer="a|b"} 0`,
		"tempartd_cluster_breaker_state{peer=\"tab\tid\"} 0",
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("missing series %q in:\n%s", want, got)
		}
	}
}

// render writes the cluster's families and checks the text format.
func render(t *testing.T, c *Cluster) string {
	t.Helper()
	var sb strings.Builder
	if err := c.Metrics().Write(&sb); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(sb.String()); err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, sb.String())
	}
	return sb.String()
}
