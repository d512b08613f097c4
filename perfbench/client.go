package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"wmsketch/internal/linear"
	"wmsketch/internal/metrics"
	"wmsketch/internal/server"
	"wmsketch/internal/stream"
	"wmsketch/internal/wire"
)

// outcome is one binary response, decoded by the goroutine that waited
// for it.
type outcome struct {
	op      byte
	tag     int // the caller's index of the request
	lat     time.Duration
	err     error
	applied int
	margin  float64
	label   int
}

func (o *outcome) decode(status byte, payload []byte) {
	if status != wire.StatusOK {
		msg, err := wire.DecodeErrorResponse(payload)
		if err != nil {
			msg = err.Error()
		}
		o.err = fmt.Errorf("%s rejected (status %d): %s", wire.OpName(o.op), status, msg)
		return
	}
	switch o.op {
	case wire.OpUpdate:
		o.applied, _, o.err = wire.DecodeUpdateResponse(payload)
	case wire.OpPredict:
		o.margin, o.label, o.err = wire.DecodePredictResponse(payload)
	}
}

// inflight pipelines binary requests on one connection: send queues a
// frame and returns at once; a goroutine per request waits for its
// response, timestamps it against from, and delivers it on out.
type inflight struct {
	cl  *wire.Client
	out chan outcome
	tr  *tracer
	wg  sync.WaitGroup
}

// newInflight sizes out for the most requests that can be outstanding, so
// a waiter never blocks on delivery.
func newInflight(cl *wire.Client, capacity int, tr *tracer) *inflight {
	return &inflight{cl: cl, out: make(chan outcome, capacity), tr: tr}
}

func (f *inflight) send(op byte, payload []byte, tag int, from time.Time, span int) error {
	call, err := f.cl.Go(op, payload, nil)
	if err != nil {
		f.tr.end(span)
		return err
	}
	if err := f.cl.Flush(); err != nil {
		f.tr.end(span)
		return err
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		status, resp, err := call.Wait()
		o := outcome{op: op, tag: tag, lat: time.Since(from), err: err}
		f.tr.end(span)
		if err == nil {
			o.decode(status, resp)
		}
		f.out <- o
	}()
	return nil
}

// checkPredict validates a predict answer: a finite margin whose sign is
// the label.
func checkPredict(rep *report, margin float64, label int) bool {
	want := -1
	if margin > 0 {
		want = 1
	}
	ok := !math.IsNaN(margin) && !math.IsInf(margin, 0) && label == want
	rep.check(ok, "predict returned margin %v with label %d", margin, label)
	return ok
}

// checkTopK validates a top-k answer: k entries, finite, sorted by
// descending |w|.
func checkTopK(rep *report, resp server.TopKResponse, k int) bool {
	ok := resp.K == k && len(resp.Features) == k
	for i, f := range resp.Features {
		if math.IsNaN(f.W) || math.IsInf(f.W, 0) || (i > 0 && math.Abs(f.W) > math.Abs(resp.Features[i-1].W)) {
			ok = false
		}
	}
	rep.check(ok, "topk returned %d of %d entries or out of order", len(resp.Features), k)
	return ok
}

// checkEstimate validates an estimate answer: one finite weight per
// requested index, in request order.
func checkEstimate(rep *report, resp server.EstimateResponse, indices []uint32) bool {
	ok := len(resp.Weights) == len(indices)
	for i := 0; ok && i < len(indices); i++ {
		w := resp.Weights[i]
		ok = w.I == indices[i] && !math.IsNaN(w.W) && !math.IsInf(w.W, 0)
	}
	rep.check(ok, "estimate returned %d weights for %d indices", len(resp.Weights), len(indices))
	return ok
}

const topK = 64

// evalResult is what one node served for a slice of the held-out set:
// binary margins, its top-k and its probe estimates.
type evalResult struct {
	margins   []float64
	wrong     int
	topk      []stream.Weighted
	estimates []float64
}

func (e evalResult) heldoutError() float64 { return float64(e.wrong) / float64(len(e.margins)) }

// jsonStride spaces the held-out examples that are also scored over JSON.
const jsonStride = 4

// evalNode scores held-out examples lo..hi over the binary protocol,
// repeats every jsonStride-th one over JSON (the two must agree bit for
// bit), and reads the top-k and the probe estimates. Latencies go to lat
// unless it is nil.
func evalNode(n *node, in *inputs, lo, hi int, lat *latencies, tr *tracer, parent int, rep *report) evalResult {
	res := evalResult{margins: make([]float64, hi-lo)}
	var predLat, jsonLat *samples
	if lat != nil {
		predLat, jsonLat = lat.predict, lat.json
	}
	cl := n.bins[0]
	var call *wire.Call
	for i := lo; i < hi; i++ {
		sp := tr.start("bin.predict", parent)
		began := time.Now()
		var err error
		call, err = cl.Go(wire.OpPredict, in.predBin[i], call)
		if err == nil {
			err = cl.Flush()
		}
		o := outcome{op: wire.OpPredict}
		if err == nil {
			var status byte
			var resp []byte
			status, resp, err = call.Wait()
			if err == nil {
				o.decode(status, resp)
				err = o.err
			}
		}
		d := time.Since(began)
		tr.end(sp)
		if err != nil {
			rep.failf("held-out predict: %v", err)
			res.wrong++
			continue
		}
		if predLat != nil {
			predLat.add(d)
		}
		res.margins[i-lo] = o.margin
		if checkPredict(rep, o.margin, o.label) && o.label != in.heldout[i].Y {
			res.wrong++
		}
	}
	for i := lo; i < hi; i++ {
		if i%jsonStride != 0 {
			continue
		}
		var pr server.PredictResponse
		if err := jsonCall(n, "POST", "/v1/predict", in.predJSON[i], &pr, jsonLat, tr, parent, "http.predict"); err != nil {
			rep.failf("held-out JSON predict: %v", err)
			continue
		}
		rep.check(math.Float64bits(pr.Margin) == math.Float64bits(res.margins[i-lo]),
			"JSON predict margin %v differs from binary %v", pr.Margin, res.margins[i-lo])
	}
	var top server.TopKResponse
	if err := jsonCall(n, "GET", "/v1/topk?k="+strconv.Itoa(topK), nil, &top, jsonLat, tr, parent, "http.topk"); err != nil {
		rep.failf("topk: %v", err)
	} else if checkTopK(rep, top, topK) {
		for _, f := range top.Features {
			res.topk = append(res.topk, stream.Weighted{Index: f.I, Weight: f.W})
		}
	}
	var est server.EstimateResponse
	if err := jsonCall(n, "POST", "/v1/estimate", in.estJSON, &est, jsonLat, tr, parent, "http.estimate"); err != nil {
		rep.failf("estimate: %v", err)
	} else if checkEstimate(rep, est, in.probes) {
		for _, w := range est.Weights {
			res.estimates = append(res.estimates, w.W)
		}
	}
	return res
}

// slice returns the bounds of round r's share of n items.
func slice(n, r, rounds int) (lo, hi int) { return n * r / rounds, n * (r + 1) / rounds }

// jsonCall performs one HTTP/JSON request against n's client listener,
// decodes the answer into out, and records its latency.
func jsonCall(n *node, method, path string, body []byte, out interface{}, lat *samples, tr *tracer, parent int, span string) error {
	sp := tr.start(span, parent)
	began := time.Now()
	resp, err := n.do(method, n.base+path, body)
	d := time.Since(began)
	tr.end(sp)
	if err != nil {
		return err
	}
	if lat != nil {
		lat.add(d)
	}
	return json.Unmarshal(resp, out)
}

// syncNode posts /v1/sync and checks the step count it reports; a
// negative wantSteps skips the check.
func syncNode(n *node, wantSteps int64, syncLat *samples, tr *tracer, parent int, rep *report) {
	var up server.UpdateResponse
	sp := tr.start("http.sync", parent)
	began := time.Now()
	resp, err := n.post("/v1/sync", []byte("{}"))
	d := time.Since(began)
	tr.end(sp)
	if err == nil {
		err = json.Unmarshal(resp, &up)
	}
	if err != nil {
		rep.failf("sync: %v", err)
		return
	}
	syncLat.add(d)
	rep.check(wantSteps < 0 || up.Steps == wantSteps, "sync reported %d steps, want %d", up.Steps, wantSteps)
}

// latencies are one round's latency samples.
type latencies struct{ update, predict, json, sync *samples }

// rounds collects per-round figures. A run reports, for each metric, the
// median over its rounds, so a short stall of the machine moves one round
// and not the run's result.
type rounds struct {
	lat  []latencies
	eps  []float64
	heap []float64
}

// newRounds reserves every sample buffer up front, before the heap
// baseline is read.
func newRounds(n, update, predict, json, sync int) *rounds {
	r := &rounds{eps: make([]float64, 0, n), heap: make([]float64, 0, n)}
	for i := 0; i < n; i++ {
		r.lat = append(r.lat, latencies{newSamples(update), newSamples(predict), newSamples(json), newSamples(sync)})
	}
	return r
}

// quantile is the median over rounds of each round's q-quantile of one
// latency kind.
func (r *rounds) quantile(pick func(latencies) *samples, q float64) float64 {
	v := make([]float64, 0, len(r.lat))
	for _, l := range r.lat {
		if x := pick(l).quantile(q); !math.IsNaN(x) {
			v = append(v, x)
		}
	}
	return median(v)
}

func (r *rounds) report(rep *report) {
	kinds := []struct {
		name string
		pick func(latencies) *samples
	}{
		{"update", func(l latencies) *samples { return l.update }},
		{"predict", func(l latencies) *samples { return l.predict }},
		{"json", func(l latencies) *samples { return l.json }},
		{"sync", func(l latencies) *samples { return l.sync }},
	}
	// Only the update median is gated: the other latencies spread too
	// widely between runs on a small shared VM (README.md).
	rep.set("update_p50_ms", "ms", r.quantile(kinds[0].pick, 0.50))
	for i, k := range kinds {
		if i > 0 {
			rep.extra(k.name+"_p50_ms", "ms", r.quantile(k.pick, 0.50))
		}
		rep.extra(k.name+"_p90_ms", "ms", r.quantile(k.pick, 0.90))
		rep.extra(k.name+"_p99_ms", "ms", r.quantile(k.pick, 0.99))
		n := 0
		for _, l := range r.lat {
			n += k.pick(l).len()
		}
		rep.extra("samples."+k.name, "count", float64(n))
	}
	rep.set("ingest_eps", "examples/s", median(r.eps))
	// The smallest reading is the heap the server retains; a larger one
	// caught buffers of the round that just ended.
	rep.set("server_heap_mb", "MB", slices.Min(r.heap))
	rep.extra("server_heap_median_mb", "MB", median(r.heap))
}

// quality reports how well the served models (one per node) learned, as
// the worst node against the uncompressed reference.
func quality(rep *report, in *inputs, res []evalResult) {
	ref := in.ref
	refErr := refError(ref, in.heldout)
	worstErr, worstRel := 0.0, 0.0
	for _, r := range res {
		worstErr = math.Max(worstErr, r.heldoutError())
		worstRel = math.Max(worstRel, relErr(r.topk, ref))
	}
	rep.set("heldout_error_ratio", "ratio", worstErr/refErr)
	rep.extra("heldout_error", "fraction", worstErr)
	rep.extra("ref_heldout_error", "fraction", refErr)
	rep.extra("topk_relerr", "ratio", worstRel)
}

// refError is the uncompressed reference learner's error on the held-out
// set: the floor the served model is measured against.
func refError(ref *linear.LogReg, heldout []stream.Example) float64 {
	wrong := 0
	for _, ex := range heldout {
		if (ref.Predict(ex.X) > 0) != (ex.Y > 0) {
			wrong++
		}
	}
	return float64(wrong) / float64(len(heldout))
}

// relErr is the paper's RelErr of a served top-k against the uncompressed
// reference learner's weights; NaN when the top-k could not be read.
func relErr(top []stream.Weighted, ref *linear.LogReg) float64 {
	if len(top) == 0 {
		return math.NaN()
	}
	return metrics.RelErr(top, ref.Weights())
}
