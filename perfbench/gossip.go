package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"wmsketch/internal/wire"
)

const maxSettleRounds = 32

// measureGossip boots three awm nodes in cluster mode and runs rounds.
// In a round every node, on its own, loops over a chunk of its partition
// over binary, a sync and one GossipOnce; when the round's time is up the
// nodes keep gossiping until every digest agrees, then each scans its
// share of the held-out set. The converged nodes must answer bit for bit
// alike.
func measureGossip(p params, in *inputs, tr *tracer, rep *report) error {
	nr := measureRounds(p)
	roundLen := seconds(p.seconds / float64(nr))
	chunkFrames := p.size.pick(8, 2)
	maxChunks := int(roundLen.Seconds()*200) + 16
	nodesN := len(in.pools)
	rs := newRounds(nr, maxChunks*nodesN*chunkFrames, nodesN*(len(in.predBin)/nr+1),
		nodesN*(len(in.predJSON)/nr+8), nodesN*maxChunks)

	heap0 := liveHeap()
	root := tr.start("run", -1)
	defer tr.end(root)
	nodes, err := setupNodes(in, 1, true, setupReps(p), tr, root, rep)
	if err != nil {
		return err
	}
	defer closeAll(nodes)

	// The nodes are separate servers: the benchmark feeds, syncs and
	// gossips them at the same time, as their own clients and gossip loops
	// would.
	eachNode := func(fn func(i int, n *node)) {
		var wg sync.WaitGroup
		for i, n := range nodes {
			wg.Add(1)
			go func(i int, n *node) {
				defer wg.Done()
				fn(i, n)
			}(i, n)
		}
		wg.Wait()
	}
	var gossipNS, rounds atomic.Int64
	gossipOnce := func(n *node, parent int) {
		sp := tr.start("cluster.gossip_once", parent)
		began := time.Now()
		reconciled := n.srv.ClusterNode().GossipOnce()
		gossipNS.Add(int64(time.Since(began)))
		tr.end(sp)
		rounds.Add(1)
		rep.check(reconciled == nodesN-1, "gossip round reconciled %d of %d peers", reconciled, nodesN-1)
	}
	fed := make([]int64, nodesN)
	next := make([]int, nodesN)
	for r := 0; r < nr; r++ {
		lat := rs.lat[r]
		feed := tr.start("round", root)
		t0 := time.Now()
		deadline := t0.Add(roundLen)
		var before int64
		for _, f := range fed {
			before += f
		}
		// Each node runs its own loop, as its own clients and gossip
		// ticker would: a chunk of updates, a sync, one GossipOnce.
		eachNode(func(i int, n *node) {
			for first := true; first || time.Now().Before(deadline); first = false {
				feedChunk(n, in.pools[i], &next[i], chunkFrames, &fed[i], lat.update, tr, feed, rep)
				syncNode(n, in.warmSteps(i)+fed[i], lat.sync, tr, feed, rep)
				gossipOnce(n, feed)
			}
		})
		agreed := false
		for s := 1; s <= maxSettleRounds && !agreed; s++ {
			eachNode(func(_ int, n *node) { gossipOnce(n, feed) })
			agreed = s >= 2 && digestsAgree(nodes)
		}
		rep.check(agreed, "digests still differ after %d settle rounds", maxSettleRounds)
		var after int64
		for _, f := range fed {
			after += f
		}
		rs.eps = append(rs.eps, float64(after-before)/time.Since(t0).Seconds())
		rs.heap = append(rs.heap, float64(int64(liveHeap())-int64(heap0))/1e6)
		lo, hi := slice(len(in.heldout), r, nr)
		for _, n := range nodes {
			evalNode(n, in, lo, hi, &lat, tr, feed, rep)
		}
		tr.end(feed)
	}
	var gossipBytes, fulls, deltas int64
	for _, n := range nodes {
		gossipBytes += n.gossipBytes.Load()
		st := n.srv.ClusterNode().Status()
		fulls += st.FullsOut
		deltas += st.DeltasOut
	}
	rep.extra("gossip_delta_share", "fraction", float64(deltas)/float64(max(1, fulls+deltas)))
	rep.extra("converge_s", "s", time.Duration(gossipNS.Load()).Seconds())
	rep.extra("gossip_mb", "MB", float64(gossipBytes)/1e6)
	rep.extra("gossip_rounds", "count", float64(rounds.Load()))

	ev := tr.start("eval", root)
	res := make([]evalResult, len(nodes))
	for i, n := range nodes {
		res[i] = evalNode(n, in, 0, len(in.heldout), nil, tr, ev, rep)
	}
	tr.end(ev)
	closeAll(nodes)

	// Converged nodes mix the same origin versions, so they must answer
	// bit for bit alike.
	for i := 1; i < len(res); i++ {
		rep.check(sameBits(res[i].margins, res[0].margins), "node %d held-out margins differ from node 0", i)
		rep.check(sameBits(res[i].estimates, res[0].estimates), "node %d probe estimates differ from node 0", i)
	}
	rs.report(rep)
	quality(rep, in, res)
	return nil
}

// feedChunk sends frames update frames of the node's pool, starting at
// *next, all in flight at once, waits for every ack, and adds the acked
// examples to *fed.
func feedChunk(n *node, pl pool, next *int, frames int, fed *int64, upd *samples, tr *tracer, parent int, rep *report) {
	f := newInflight(n.bins[0], frames, tr)
	sent := 0
	for ; sent < frames; sent++ {
		j := *next
		*next = (*next + 1) % len(pl.frames)
		if err := f.send(wire.OpUpdate, pl.frames[j], j, time.Now(), tr.start("bin.update", parent)); err != nil {
			rep.failf("update: %v", err)
			break
		}
	}
	for ; sent > 0; sent-- {
		o := <-f.out
		want := pl.examples(o.tag)
		switch {
		case o.err != nil:
			rep.failf("update: %v", o.err)
		case o.applied != want:
			rep.failf("update applied %d of %d examples", o.applied, want)
		default:
			rep.ok()
			upd.add(o.lat)
			*fed += int64(want)
		}
	}
	f.wg.Wait()
}

func digestsAgree(nodes []*node) bool {
	ref := nodes[0].srv.ClusterNode().Digest()
	if len(ref) < len(nodes) {
		return false // not every origin has reached node 0 yet
	}
	for _, n := range nodes[1:] {
		d := n.srv.ClusterNode().Digest()
		if len(d) != len(ref) {
			return false
		}
		for k, v := range ref {
			if d[k] != v {
				return false
			}
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
