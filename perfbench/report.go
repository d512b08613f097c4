package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// endToEnd lists the metrics an untraced run reports, with their units, in
// BENCHMARK.json order. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_eps", "examples/s"},
	{"update_p50_ms", "ms"},
	{"heldout_error_ratio", "ratio"},
	{"server_heap_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"hashing.buckets_ns", "ns"},
	{"sketch.addat_ns", "ns"},
	{"sketch.estimateat_ns", "ns"},
	{"sketch.diff_ms", "ms"},
	{"sketch.applydiff_ms", "ms"},
	{"sketch.diff_changed_share", "fraction"},
	{"core.awm_update_ns", "ns"},
	{"core.awm_allocs", "count"},
	{"core.active_hit_share", "fraction"},
	{"core.sharded_update_ns", "ns"},
	{"core.enqueue_wait_ns", "ns"},
	{"core.sync_ms", "ms"},
	{"core.mix_ms", "ms"},
	{"core.predict_ns", "ns"},
	{"core.topk_us", "us"},
	{"core.ckpt_write_ms", "ms"},
	{"core.ckpt_load_ms", "ms"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.decode_allocs", "count"},
	{"wire.frame_ns", "ns"},
	{"wire.bytes_per_example", "bytes"},
	{"server.bin_pipe_ns", "ns"},
	{"server.tcp_share", "fraction"},
	{"server.json_update_us", "us"},
	{"server.json_predict_us", "us"},
	{"server.json_estimate_us", "us"},
	{"server.json_topk_us", "us"},
	{"server.sync_ms", "ms"},
	{"server.new_ms", "ms"},
	{"server.restore_ms", "ms"},
	{"cluster.round_ms", "ms"},
	{"cluster.rounds", "count"},
	{"cluster.bytes_per_round", "bytes"},
	{"cluster.delta_share", "fraction"},
	{"cluster.build_ms", "ms"},
	{"cluster.write_ms", "ms"},
	{"cluster.read_ms", "ms"},
	{"cluster.apply_ms", "ms"},
	{"cluster.publish_ms", "ms"},
	{"cluster.converge_s", "s"},
	{"cluster.gossip_mb", "MB"},
	{"trace.span_ns", "ns"},
	{"ladder.awm_ns", "ns"},
	{"ladder.sharded_ns", "ns"},
	{"ladder.sharded_add_ns", "ns"},
	{"ladder.codec_ns", "ns"},
	{"ladder.codec_add_ns", "ns"},
	{"ladder.pipe_ns", "ns"},
	{"ladder.pipe_add_ns", "ns"},
	{"ladder.tcp_ns", "ns"},
	{"ladder.tcp_add_ns", "ns"},
	{"bench.trace_overhead_share", "fraction"},
	{"bench.datagen_s", "s"},
}

type metricDef struct{ name, unit string }

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics and its operation accounting. Every
// client operation is attempted once; a transport error, a non-OK status
// or a response that fails validation counts it as failed.
type report struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	e2e    map[string]metricVal
	layers map[string]metricVal
	extras []namedVal // printed, not part of the JSON result
	msgs   []string   // first failure messages
}

type namedVal struct {
	name string
	metricVal
}

func newReport() *report {
	return &report{e2e: map[string]metricVal{}, layers: map[string]metricVal{}}
}

func (r *report) ok() { r.attempted.Add(1) }

// failf records one failed operation.
func (r *report) failf(format string, args ...interface{}) {
	r.attempted.Add(1)
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.msgs) < 20 {
		r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// check counts one validation: ok when cond holds, failed otherwise.
func (r *report) check(cond bool, format string, args ...interface{}) {
	if cond {
		r.ok()
		return
	}
	r.failf(format, args...)
}

func (r *report) set(name, unit string, v float64) {
	r.mu.Lock()
	r.e2e[name] = metricVal{v, unit}
	r.mu.Unlock()
}

func (r *report) layer(name, unit string, v float64) {
	r.mu.Lock()
	r.layers[name] = metricVal{v, unit}
	r.mu.Unlock()
}

func (r *report) extra(name, unit string, v float64) {
	r.mu.Lock()
	r.extras = append(r.extras, namedVal{name, metricVal{v, unit}})
	r.mu.Unlock()
}

func (r *report) value(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.e2e[name]; ok {
		return v.Value
	}
	if v, ok := r.layers[name]; ok {
		return v.Value
	}
	return math.NaN()
}

// merge folds a sub-run into r: its accounting adds up, and its
// end-to-end metrics and extras become printed extras under the sub-run's
// label.
func (r *report) merge(label string, o *report) {
	r.attempted.Add(o.attempted.Load())
	r.failed.Add(o.failed.Load())
	o.mu.Lock()
	defer o.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range endToEnd {
		if v, ok := o.e2e[m.name]; ok {
			r.extras = append(r.extras, namedVal{label + "." + m.name, v})
		}
	}
	for _, e := range o.extras {
		r.extras = append(r.extras, namedVal{label + "." + e.name, e.metricVal})
	}
	for _, m := range o.msgs {
		if len(r.msgs) < 20 {
			r.msgs = append(r.msgs, label+": "+m)
		}
	}
}

func (r *report) correct() bool { return r.failed.Load() == 0 }

type finalResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// complete checks that every metric of the run's set is present and
// finite; a missing one fails the run.
func (r *report) complete(traced bool) {
	defs, got := endToEnd, r.e2e
	if traced {
		defs, got = perLayer, r.layers
	}
	for _, d := range defs {
		v, ok := got[d.name]
		switch {
		case !ok:
			r.failf("metric %s was not measured", d.name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			r.failf("metric %s is not finite", d.name)
			delete(got, d.name)
		}
	}
}

func (r *report) final(traced bool) finalResult {
	got := r.e2e
	if traced {
		got = r.layers
	}
	out := finalResult{
		Correct:   r.correct(),
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metricVal{},
	}
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	for k, v := range got {
		out.Metrics[k] = v
	}
	return out
}

// print writes every metric, its unit, and the failure messages.
func (r *report) print(w io.Writer, traced bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	defs, got := endToEnd, r.e2e
	if traced {
		defs, got = perLayer, r.layers
	}
	for _, d := range defs {
		if v, ok := got[d.name]; ok {
			fmt.Fprintf(w, "metric %-28s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	for _, e := range r.extras {
		fmt.Fprintf(w, "extra  %-28s %14.6g %s\n", e.name, e.Value, e.Unit)
	}
	a, f := r.attempted.Load(), r.failed.Load()
	share := 0.0
	if a > 0 {
		share = float64(f) / float64(a)
	}
	fmt.Fprintf(w, "extra  %-28s %14.6g fraction (%d of %d operations)\n", "failed_share", share, f, a)
	for _, m := range r.msgs {
		fmt.Fprintln(w, "FAILED", m)
	}
}

// samples is a concurrency-safe latency collector, in milliseconds. Its
// capacity is reserved before the heap baseline so the benchmark's own
// bookkeeping does not count as server memory.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func newSamples(capacity int) *samples { return &samples{v: make([]float64, 0, capacity)} }

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.v = append(s.v, float64(d)/1e6)
	s.mu.Unlock()
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// quantile returns the q-quantile with linear interpolation between order
// statistics; NaN when empty.
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.v...)
	s.mu.Unlock()
	return quantile(v, q)
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

func median(v []float64) float64 { return quantile(append([]float64(nil), v...), 0.5) }

// medianOf runs fn n times and returns the median of its results.
func medianOf(n int, fn func() float64) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = fn()
	}
	return median(v)
}
