package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"wmsketch/internal/cluster"
	"wmsketch/internal/core"
)

// TestHealthzPlain: outside cluster mode /healthz answers a bare ok with no
// cluster section.
func TestHealthzPlain(t *testing.T) {
	_, hs := newTestServer(t, BackendAWM)
	var resp HealthzResponse
	if code := doJSON(t, "GET", hs.URL+"/healthz", nil, &resp); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if resp.Status != "ok" || resp.Cluster != nil {
		t.Fatalf("plain healthz: %+v", resp)
	}
}

// TestHealthzClusterHealthy: a healthy mesh reports every peer alive and no
// degraded bit.
func TestHealthzClusterHealthy(t *testing.T) {
	srvs, https := clusterServers(t, 2, testOptions(t, BackendAWM))
	srvs[0].ClusterNode().GossipOnce()
	var resp HealthzResponse
	if code := doJSON(t, "GET", https[0].URL+"/healthz", nil, &resp); code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	if resp.Status != "ok" || resp.Cluster == nil {
		t.Fatalf("cluster healthz: %+v", resp)
	}
	if resp.Cluster.PeersTotal != 1 || resp.Cluster.PeersAlive != 1 || resp.Cluster.Degraded {
		t.Fatalf("healthy mesh: %+v", *resp.Cluster)
	}
	if resp.Cluster.LastSuccess.IsZero() {
		t.Fatal("last_success not recorded after a successful round")
	}
	if len(resp.Cluster.LastGossipUnix) != 1 {
		t.Fatalf("last_gossip_unix should have one entry per peer: %+v", resp.Cluster.LastGossipUnix)
	}
	for peer, ts := range resp.Cluster.LastGossipUnix {
		if ts <= 0 {
			t.Fatalf("peer %s gossiped successfully but last_gossip_unix is %d", peer, ts)
		}
	}
}

// downTransport fails every gossip RPC — the peer looks unreachable.
type downTransport struct{}

func (downTransport) Pull(context.Context, string, cluster.PullRequest) (io.ReadCloser, error) {
	return nil, fmt.Errorf("connection refused")
}
func (downTransport) Push(context.Context, string, []byte) error {
	return fmt.Errorf("connection refused")
}

// TestHealthzDegraded: when the node's only peer stops answering for long
// enough to be suspected, /healthz still returns 200 (the node keeps
// serving) but flips status to "degraded" and says why in the counts.
func TestHealthzDegraded(t *testing.T) {
	srv, hs := newTestServer(t, BackendAWM)
	clock := cluster.NewVirtualClock(time.Unix(1_700_000_000, 0))
	n, err := cluster.NewNode(cluster.Config{
		Self:  "healthz-test",
		Peers: []string{"http://dead:1"},
		Mix: core.MixOptions{
			Depth: srv.opt.Config.Depth, Width: srv.opt.Config.Width,
			Seed: srv.opt.Config.Seed, HeapSize: srv.opt.Config.HeapSize,
		},
		Local:     backendSnapshotter{srv},
		Interval:  -1,
		Seed:      1,
		Transport: downTransport{},
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.cluster = n
	// Three consecutive failed rounds promote the peer to suspect; advance
	// the virtual clock past the growing backoff between attempts.
	for i := 0; i < 3; i++ {
		n.GossipOnce()
		clock.Advance(10 * time.Second)
	}
	var resp HealthzResponse
	if code := doJSON(t, "GET", hs.URL+"/healthz", nil, &resp); code != http.StatusOK {
		t.Fatalf("degraded healthz must stay 200, got %d", code)
	}
	if resp.Status != "degraded" || resp.Cluster == nil || !resp.Cluster.Degraded {
		t.Fatalf("degraded mesh not reported: %+v", resp)
	}
	if resp.Cluster.PeersAlive != 0 || resp.Cluster.PeersSuspect+resp.Cluster.PeersDead != 1 {
		t.Fatalf("peer counts: %+v", *resp.Cluster)
	}
}

// TestClusterOptionsPlumbing: the serving-layer knobs reach cluster.Config —
// peers without a node id must fail construction, peers with one must not.
func TestClusterOptionsPlumbing(t *testing.T) {
	opt := testOptions(t, BackendAWM)
	opt.Cluster = ClusterOptions{
		Peers:         []string{"http://127.0.0.1:1"},
		Interval:      -1,
		GossipTimeout: 5 * time.Second,
		Fanout:        2,
		OriginGCAfter: time.Minute,
	}
	if _, err := New(opt); err == nil {
		t.Fatal("cluster peers without a node id accepted")
	}
	opt.Cluster.Self = "http://127.0.0.1:0"
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.ClusterNode() == nil {
		t.Fatal("cluster node not started")
	}
}
