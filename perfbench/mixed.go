package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wmsketch/internal/server"
	"wmsketch/internal/wire"
)

// Open-loop rates of the mixed workload, in requests per second. Updates
// carry 64 examples, so the learner sees about 11k examples/s, a few
// percent of one core.
const (
	binUpdateRate   = 150
	binPredictRate  = 300
	jsonUpdateRate  = 20
	jsonEstRate     = 60
	jsonTopKRate    = 20
	jsonSyncRate    = 10
	genLateLimitMS  = 2 // a run whose generator ran later than this at the median fell behind
	scheduleStartIn = 20 * time.Millisecond
)

const (
	evUpdate = iota
	evPredict
	evEstimate
	evTopK
	evSync
)

// event is one scheduled request: due at offset at from the start of the
// run, carrying payload number item of its kind.
type event struct {
	at   time.Duration
	kind int
	item int
}

// mixedSchedule draws the arrivals of every request kind over secs
// seconds: one timeline for the binary connection, one for the JSON one.
// Each kind gets exactly rate·secs requests at uniformly random times (a
// Poisson process conditioned on its count), so every seed offers the
// same load.
func mixedSchedule(secs float64, rng *rand.Rand) (bin, js []event) {
	arrivals := func(rate float64, kind int, out []event) []event {
		n := int(rate * secs)
		at := make([]float64, n)
		for i := range at {
			at[i] = rng.Float64() * secs
		}
		sort.Float64s(at)
		for i, t := range at {
			out = append(out, event{at: seconds(t), kind: kind, item: i})
		}
		return out
	}
	bin = arrivals(binUpdateRate, evUpdate, bin)
	bin = arrivals(binPredictRate, evPredict, bin)
	js = arrivals(jsonUpdateRate, evUpdate, js)
	js = arrivals(jsonEstRate, evEstimate, js)
	js = arrivals(jsonTopKRate, evTopK, js)
	js = arrivals(jsonSyncRate, evSync, js)
	for _, evs := range [][]event{bin, js} {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	}
	return bin, js
}

// measureMixed replays the precomputed open-loop schedule in rounds:
// binary updates and predicts on one connection, JSON updates, estimates,
// top-k and syncs on one keep-alive HTTP connection. Every request is
// timed from when it was due. A round ends with a sync that makes every
// acked example learned; the served model is evaluated after the last.
func measureMixed(p params, in *inputs, tr *tracer, rep *report) error {
	nr := measureRounds(p)
	// A traced run's passes are half as long as the schedule drawn for it.
	binEv := eventsBetween(in.binEvents, 0, seconds(p.seconds))
	jsEv := eventsBetween(in.jsonEvents, 0, seconds(p.seconds))
	rs := newRounds(nr, len(binEv)/nr+64, len(binEv)/nr+64, len(jsEv)/nr+64, len(jsEv)/nr+64)
	genLate := newSamples(len(binEv) + len(jsEv))

	heap0 := liveHeap()
	root := tr.start("run", -1)
	defer tr.end(root)
	nodes, err := setupNodes(in, 1, false, setupReps(p), tr, root, rep)
	if err != nil {
		return err
	}
	defer closeAll(nodes)
	n := nodes[0]

	var examples atomic.Int64
	for r := 0; r < nr; r++ {
		lat := rs.lat[r]
		feed := tr.start("round", root)
		from, to := seconds(p.seconds*float64(r)/float64(nr)), seconds(p.seconds*float64(r+1)/float64(nr))
		if r == nr-1 {
			to = seconds(p.seconds) + 1
		}
		// t0 is when the round's share of the schedule starts.
		t0 := time.Now().Add(scheduleStartIn).Add(-from)
		before := examples.Load()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			mixedBinary(n.bins[0], in, eventsBetween(binEv, from, to), t0, lat, genLate, &examples, tr, feed, rep)
		}()
		go func() {
			defer wg.Done()
			mixedJSON(n, in, eventsBetween(jsEv, from, to), t0, lat, genLate, &examples, tr, feed, rep)
		}()
		wg.Wait()
		syncNode(n, in.warmSteps(0)+examples.Load(), lat.sync, tr, feed, rep)
		rs.eps = append(rs.eps, float64(examples.Load()-before)/time.Since(t0.Add(from)).Seconds())
		tr.end(feed)
		rs.heap = append(rs.heap, float64(int64(liveHeap())-int64(heap0))/1e6)
	}
	late := genLate.quantile(0.5)
	rep.extra("bench.gen_late_p50_ms", "ms", late)
	rep.extra("bench.gen_late_p99_ms", "ms", genLate.quantile(0.99))
	rep.check(late <= genLateLimitMS, "open-loop generator fell behind: median lateness %.2f ms over %d ms", late, genLateLimitMS)

	ev := tr.start("eval", root)
	res := evalNode(n, in, 0, len(in.heldout), nil, tr, ev, rep)
	tr.end(ev)
	closeAll(nodes)

	rs.report(rep)
	quality(rep, in, []evalResult{res})
	return nil
}

// eventsBetween returns the events due in [from, to).
func eventsBetween(evs []event, from, to time.Duration) []event {
	lo := sort.Search(len(evs), func(i int) bool { return evs[i].at >= from })
	hi := sort.Search(len(evs), func(i int) bool { return evs[i].at >= to })
	return evs[lo:hi]
}

// mixedBinary sends the binary timeline without waiting for responses; a
// consumer goroutine validates and times them as they arrive.
func mixedBinary(cl *wire.Client, in *inputs, evs []event, t0 time.Time, lat latencies, genLate *samples,
	examples *atomic.Int64, tr *tracer, parent int, rep *report) {
	pl := in.pools[0]
	f := newInflight(cl, len(evs), tr)
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for o := range f.out {
			if o.err != nil {
				rep.failf("binary %s: %v", wire.OpName(o.op), o.err)
				continue
			}
			ev := evs[o.tag]
			switch o.op {
			case wire.OpUpdate:
				b := pl.batches[ev.item%len(pl.batches)]
				if o.applied != len(b) {
					rep.failf("update applied %d of %d examples", o.applied, len(b))
					continue
				}
				rep.ok()
				lat.update.add(o.lat)
				examples.Add(int64(len(b)))
			case wire.OpPredict:
				if checkPredict(rep, o.margin, o.label) {
					lat.predict.add(o.lat)
				}
			}
		}
	}()
	for i, ev := range evs {
		// The request is timed from when it was due, or from when the
		// generator woke if its timer fired late: timer overshoot is the
		// generator's lateness, reported on its own.
		due := t0.Add(ev.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		genLate.add(late)
		due = due.Add(late)
		op, name, payload := wire.OpUpdate, "bin.update", []byte(nil)
		if ev.kind == evUpdate {
			payload = pl.frames[ev.item%len(pl.frames)]
		} else {
			op, name, payload = wire.OpPredict, "bin.predict", in.predBin[ev.item%len(in.predBin)]
		}
		if err := f.send(op, payload, i, due, tr.startAt(name, parent, due)); err != nil {
			rep.failf("binary send: %v", err)
			break
		}
	}
	f.wg.Wait()
	close(f.out)
	<-consumed
}

// mixedJSON walks the JSON timeline on one keep-alive connection. A
// request due while the previous one is still running waits for it, and
// that wait counts in its latency; a sender that was idle at the due time
// and woke late counts that as generator lateness instead.
func mixedJSON(n *node, in *inputs, evs []event, t0 time.Time, lat latencies, genLate *samples,
	examples *atomic.Int64, tr *tracer, parent int, rep *report) {
	pl := in.jsonPool
	prevDone := t0
	for _, ev := range evs {
		due := t0.Add(ev.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if prevDone.Before(due) {
			late := time.Since(due)
			genLate.add(late)
			due = due.Add(late)
		}
		var err error
		var name string
		var check func() bool
		switch ev.kind {
		case evUpdate:
			name = "http.update"
			b := pl.batches[ev.item%len(pl.batches)]
			var up server.UpdateResponse
			err = jsonDo(n, "POST", "/v1/update", pl.json[ev.item%len(pl.json)], &up)
			check = func() bool {
				if up.Applied != len(b) {
					rep.failf("JSON update applied %d of %d examples", up.Applied, len(b))
					return false
				}
				rep.ok()
				examples.Add(int64(len(b)))
				return true
			}
		case evEstimate:
			name = "http.estimate"
			var est server.EstimateResponse
			err = jsonDo(n, "POST", "/v1/estimate", in.estJSON, &est)
			check = func() bool { return checkEstimate(rep, est, in.probes) }
		case evTopK:
			name = "http.topk"
			var top server.TopKResponse
			err = jsonDo(n, "GET", "/v1/topk?k="+strconv.Itoa(topK), nil, &top)
			check = func() bool { return checkTopK(rep, top, topK) }
		case evSync:
			name = "http.sync"
			var up server.UpdateResponse
			err = jsonDo(n, "POST", "/v1/sync", []byte("{}"), &up)
			check = func() bool {
				ok := up.Steps >= in.warmSteps(0)
				rep.check(ok, "sync reported %d steps, fewer than the warm start's %d", up.Steps, in.warmSteps(0))
				return ok
			}
		}
		d := time.Since(due)
		prevDone = time.Now()
		tr.end(tr.startAt(name, parent, due))
		if err != nil {
			rep.failf("JSON %s: %v", name, err)
			continue
		}
		// Syncs have their own figure; json_* covers the rest of the mix.
		if check() {
			if ev.kind == evSync {
				lat.sync.add(d)
			} else {
				lat.json.add(d)
			}
		}
	}
}

// jsonDo performs one HTTP/JSON request and decodes its answer.
func jsonDo(n *node, method, path string, body []byte, out interface{}) error {
	resp, err := n.do(method, n.base+path, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(resp, out)
}
