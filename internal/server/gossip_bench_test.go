package server

import (
	"net"
	"net/http"
	"sync/atomic"
	"testing"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// BenchmarkGossipOnce measures gossip rounds of a three-node awm cluster
// over loopback HTTP at the perfbench gossip workload's geometry (4096×1,
// heap 2048). Each iteration feeds every node one 512-example chunk and
// then runs one GossipOnce per node, so every round publishes, diffs and
// ships a new version of every origin. Besides time and allocations it
// reports the TCP connections the listeners accepted per iteration
// (conns/round), which is 0 when pulls and pushes reuse their connections.
func BenchmarkGossipOnce(b *testing.B) {
	opt := testOptions(b, BackendAWM)
	opt.Config = core.Config{Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 42}
	var conns atomic.Int64
	srvs, _ := clusterServers(b, 3, opt, func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	})
	gen := datagen.RCV1Like(1)
	chunks := make([][]stream.Example, 8*len(srvs))
	for i := range chunks {
		chunks[i] = gen.Take(512)
	}
	next := 0
	round := func() {
		for _, s := range srvs {
			batch := chunks[next%len(chunks)]
			next++
			s.withBackend(func(l learner) { l.UpdateBatch(batch) })
		}
		for i, s := range srvs {
			if ok := s.ClusterNode().GossipOnce(); ok != len(srvs)-1 {
				b.Fatalf("node %d reconciled %d of %d peers", i, ok, len(srvs)-1)
			}
		}
	}
	// The first rounds ship full frames and open the connections.
	round()
	round()
	conns.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	b.ReportMetric(float64(conns.Load())/float64(b.N), "conns/round")
}
