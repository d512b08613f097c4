package main

import (
	"sync"
	"sync/atomic"
	"time"

	"wmsketch/internal/wire"
)

const (
	ingestConns  = 2
	ingestWindow = 4 // update frames in flight per connection
)

// measureRounds is how many rounds a run's measured phase is cut into.
func measureRounds(p params) int { return p.size.pick(5, 2) }

// measureIngest runs rounds of closed-loop ingest: two binary connections
// keep the training pool flowing; a round ends with a sync that makes
// every acked example learned, followed by a scan of its share of the
// held-out set. The served model is then evaluated once more on the whole
// held-out set.
func measureIngest(p params, in *inputs, tr *tracer, rep *report) error {
	pl := in.pools[0]
	nr := measureRounds(p)
	roundLen := seconds(p.seconds / float64(nr))
	maxFrames := int(roundLen.Seconds()*400) + 64 // far above any rate reached here
	rs := newRounds(nr, maxFrames, len(in.predBin)/nr+1, len(in.predJSON)/nr+8, 1)

	heap0 := liveHeap()
	root := tr.start("run", -1)
	defer tr.end(root)
	nodes, err := setupNodes(in, ingestConns, false, setupReps(p), tr, root, rep)
	if err != nil {
		return err
	}
	defer closeAll(nodes)
	n := nodes[0]

	var examples atomic.Int64
	next := []int{0, 1} // connection c sends frames c, c+2, ... of the pool
	for r := 0; r < nr; r++ {
		lat := rs.lat[r]
		feed := tr.start("round", root)
		before := examples.Load()
		t0 := time.Now()
		deadline := t0.Add(roundLen)
		var wg sync.WaitGroup
		for c := 0; c < ingestConns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				next[c] = ingestConn(n.bins[c], pl, next[c], deadline, lat.update, &examples, tr, feed, rep)
			}(c)
		}
		wg.Wait()
		syncNode(n, in.warmSteps(0)+examples.Load(), lat.sync, tr, feed, rep)
		rs.eps = append(rs.eps, float64(examples.Load()-before)/time.Since(t0).Seconds())
		settle()
		rs.heap = append(rs.heap, float64(int64(liveHeap())-int64(heap0))/1e6)
		lo, hi := slice(len(in.heldout), r, nr)
		evalNode(n, in, lo, hi, &lat, tr, feed, rep)
		tr.end(feed)
	}

	ev := tr.start("eval", root)
	res := evalNode(n, in, 0, len(in.heldout), nil, tr, ev, rep)
	tr.end(ev)
	closeAll(nodes)

	rs.report(rep)
	quality(rep, in, []evalResult{res})
	return nil
}

// ingestConn keeps ingestWindow update frames in flight on cl until the
// deadline, starting at frame next of the pool and taking every
// ingestConns-th frame, wrapping around. It returns the frame to send
// next.
func ingestConn(cl *wire.Client, pl pool, next int, deadline time.Time, upd *samples, examples *atomic.Int64, tr *tracer, parent int, rep *report) int {
	f := newInflight(cl, ingestWindow, tr)
	pending := 0
	sending := true
	for {
		for sending && pending < ingestWindow && time.Now().Before(deadline) {
			sp := tr.start("bin.update", parent)
			if err := f.send(wire.OpUpdate, pl.frames[next], next, time.Now(), sp); err != nil {
				rep.failf("update: %v", err)
				sending = false
				break
			}
			pending++
			next = (next + ingestConns) % len(pl.frames)
		}
		if pending == 0 {
			break
		}
		o := <-f.out
		pending--
		if o.err != nil {
			rep.failf("update: %v", o.err)
			continue
		}
		want := pl.examples(o.tag)
		if o.applied != want {
			rep.failf("update applied %d of %d examples", o.applied, want)
			continue
		}
		rep.ok()
		upd.add(o.lat)
		examples.Add(int64(want))
	}
	f.wg.Wait()
	return next
}

// settle waits out the server's background snapshot refresh, which runs
// every 200 ms while steps changed since its last merge, so the scan that
// follows a round meets a quiet server.
func settle() { time.Sleep(300 * time.Millisecond) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
