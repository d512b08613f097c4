// Package trace is the repository's stdlib-only distributed-tracing layer:
// trace/span identifiers, context.Context propagation, a lock-free
// ring-buffer flight recorder per process, and tail-based sampling.
//
// Design constraints, in order:
//
//  1. The unsampled hot path must stay allocation-flat. A span start/finish
//     pair costs exactly one heap allocation (the context.WithValue node);
//     span slots come from a pooled fixed-size arena and identifiers are
//     drawn from a seeded splitmix64 stream, so nothing else escapes.
//     BenchmarkSpanChild pins this the way BenchmarkObserve pins the
//     metrics contract.
//  2. Sampling is tail-based: the keep/drop decision happens when the ROOT
//     span finishes, so a trace that errored or blew the latency threshold
//     is always kept, and only the boring majority is probabilistically
//     thinned. Kept traces are copied into immutable Records; the arena
//     returns to the pool either way.
//  3. Determinism is injectable. Options.Now and Options.Seed let the
//     cluster simulator run tracing under its virtual clock and fixed
//     seeds, which is what makes the causal-lineage gate reproducible.
//
// The tracer never blocks and never drops a trace silently: every outcome
// is accounted in wmtrace_* metrics on the shared obs registry.
package trace

import (
	"context"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"wmsketch/internal/obs"
)

// TraceID identifies one causal request tree across process boundaries.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits (the W3C wire form).
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 16 lowercase hex digits (the W3C wire form).
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// SpanContext is the portable part of a span: what crosses a process
// boundary in a traceparent header or a gossip stream annotation.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are non-zero (the W3C validity rule).
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Options configures a Tracer. The zero value selects production defaults;
// the simulator overrides Now and Seed for determinism.
type Options struct {
	// Now supplies timestamps (default time.Now). The cluster layer injects
	// its virtual clock here so span durations obey clockdet discipline.
	Now func() time.Time
	// Seed seeds the identifier/sampling stream. Zero derives a seed from
	// the clock at construction; any other value makes the tracer's ID and
	// sampling sequence fully deterministic (single-threaded).
	Seed int64
	// SampleRate is the probability a non-slow, non-error trace is kept.
	// Zero selects the default 0.01; negative disables probabilistic
	// sampling entirely (errors and slow traces are still always kept).
	SampleRate float64
	// SlowThreshold is the root latency at or above which a trace is always
	// kept. Zero selects the default 100ms; negative disables the slow
	// keep-path.
	SlowThreshold time.Duration
	// MaxSpans bounds the per-trace span arena (default 64). Spans started
	// beyond the bound are counted as dropped and their subtree reattaches
	// to the nearest recorded ancestor.
	MaxSpans int
	// RecentCapacity sizes the flight recorder's recent ring (default 256).
	RecentCapacity int
	// SlowCapacity sizes the slow/error ring (default 64).
	SlowCapacity int
	// Registry receives the tracer's own instrumentation. Nil allocates a
	// private registry (the tracer still works, the metrics are just not
	// exported anywhere).
	Registry *obs.Registry
}

// Tracer mints spans, owns the flight recorder, and applies the tail
// sampling policy. All methods are safe for concurrent use and safe on a
// nil receiver (every call becomes a no-op), so call sites never need a
// "tracing enabled?" branch.
type Tracer struct {
	now      func() time.Time
	rate     float64
	slow     time.Duration
	maxSpans int

	rng  atomic.Uint64 // splitmix64 state; Add advances, mixing hashes
	pool sync.Pool     // *activeTrace arenas

	recent *ring                  // every kept trace, newest last
	slowed *ring                  // only slow/error traces (the worst offenders)
	worst  atomic.Pointer[Record] // longest-rooted kept trace ever; survives ring eviction

	traces       *obs.Counter
	keptSlow     *obs.Counter
	keptError    *obs.Counter
	keptSampled  *obs.Counter
	spansDropped *obs.Counter
	rootDur      *obs.Histogram
}

// New builds a Tracer from opt (see Options for defaulting rules).
func New(opt Options) *Tracer {
	if opt.Now == nil {
		opt.Now = time.Now
	}
	if opt.SampleRate == 0 {
		opt.SampleRate = 0.01
	}
	if opt.SlowThreshold == 0 {
		opt.SlowThreshold = 100 * time.Millisecond
	}
	if opt.MaxSpans <= 0 {
		opt.MaxSpans = 64
	}
	if opt.RecentCapacity <= 0 {
		opt.RecentCapacity = 256
	}
	if opt.SlowCapacity <= 0 {
		opt.SlowCapacity = 64
	}
	if opt.Seed == 0 {
		opt.Seed = opt.Now().UnixNano()
	}
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}

	t := &Tracer{
		now:      opt.Now,
		rate:     opt.SampleRate,
		slow:     opt.SlowThreshold,
		maxSpans: opt.MaxSpans,
		recent:   newRing(opt.RecentCapacity),
		slowed:   newRing(opt.SlowCapacity),
	}
	t.rng.Store(uint64(opt.Seed))
	t.pool.New = func() interface{} {
		return &activeTrace{tr: t, spans: make([]Span, t.maxSpans)}
	}

	t.traces = reg.Counter("wmtrace_traces_total", "root spans finished")
	kept := reg.CounterVec("wmtrace_traces_kept_total",
		"traces retained by the flight recorder, by tail-sampling reason", "reason")
	t.keptSlow = kept.With("slow")
	t.keptError = kept.With("error")
	t.keptSampled = kept.With("sampled")
	t.spansDropped = reg.Counter("wmtrace_spans_dropped_total",
		"spans discarded because a trace exceeded its span arena")
	t.rootDur = reg.Histogram("wmtrace_root_duration_seconds",
		"root span duration (the same latency buckets the HTTP metrics use)",
		obs.LatencyBuckets)
	return t
}

// splitmix64Gamma is Steele/Lea/Flood's odd increment; Add makes the state
// sequence race-free, and the output mix makes consecutive states
// independent draws.
const splitmix64Gamma = 0x9E3779B97F4A7C15

func (t *Tracer) rand64() uint64 {
	x := t.rng.Add(splitmix64Gamma)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		hi, lo := t.rand64(), t.rand64()
		for i := 0; i < 8; i++ {
			id[i] = byte(hi >> (8 * uint(7-i)))
			id[8+i] = byte(lo >> (8 * uint(7-i)))
		}
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		v := t.rand64()
		for i := 0; i < 8; i++ {
			id[i] = byte(v >> (8 * uint(7-i)))
		}
	}
	return id
}

// sampleHit draws one keep/drop decision for a boring (non-slow,
// non-error) trace.
func (t *Tracer) sampleHit() bool {
	if t.rate <= 0 {
		return false
	}
	if t.rate >= 1 {
		return true
	}
	// 53 uniform bits -> [0,1); the standard float ladder.
	return float64(t.rand64()>>11)/(1<<53) < t.rate
}

// activeTrace is one in-flight trace: a fixed-size span arena recycled
// through the tracer's pool. Span pointers stay valid for the lifetime of
// the trace because the backing array never reallocates.
type activeTrace struct {
	tr      *Tracer
	traceID TraceID
	remote  bool         // root's parent lives in another process
	used    atomic.Int32 // slots claimed; may exceed len(spans) (overflow = dropped)
	spans   []Span
}

// Span is one timed operation inside a trace. The zero of *Span (nil) is a
// valid no-op span, which is what a nil tracer and arena overflow return.
type Span struct {
	at     *activeTrace
	name   string
	id     SpanID
	parent SpanID
	start  time.Time
	dur    time.Duration
	root   bool
	done   bool
	err    bool
}

type spanKey struct{}
type remoteKey struct{}

// StartSpan starts a span named name. If ctx already carries a local span
// the new span becomes its child inside the same trace; if ctx carries a
// remote SpanContext (ContextWithRemote) a new local trace is started that
// CONTINUES the remote trace ID with the remote span as parent; otherwise
// a fresh root trace is minted. The returned context carries the new span
// for further nesting; Finish on the root span runs the tail-sampling
// decision for the whole trace.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		if at := parent.at; at.tr == t {
			i := int(at.used.Add(1)) - 1
			if i >= len(at.spans) {
				// Arena full: drop this span (counted at root finish); children
				// started under the dropped span attach to parent instead.
				return ctx, nil
			}
			sp := &at.spans[i]
			*sp = Span{at: at, name: name, id: t.newSpanID(), parent: parent.id, start: t.now()}
			return context.WithValue(ctx, spanKey{}, sp), sp
		}
		// The active span belongs to ANOTHER tracer (two simulated nodes share
		// one process and one context). Never touch a foreign arena — continue
		// the trace as if it had crossed a process boundary.
		ctx = ContextWithRemote(ctx, parent.Context())
	}

	at, _ := t.pool.Get().(*activeTrace)
	var parent SpanID
	if rsc, ok := ctx.Value(remoteKey{}).(SpanContext); ok && rsc.Valid() {
		at.traceID = rsc.TraceID
		at.remote = true
		parent = rsc.SpanID
	} else {
		at.traceID = t.newTraceID()
		at.remote = false
	}
	at.used.Store(1)
	sp := &at.spans[0]
	*sp = Span{at: at, name: name, id: t.newSpanID(), parent: parent, start: t.now(), root: true}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SetError marks the span (and therefore its whole trace) as errored;
// errored traces are always kept by the tail sampler.
func (s *Span) SetError() {
	if s != nil {
		s.err = true
	}
}

// Context returns the span's portable identity for propagation.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.at.traceID, SpanID: s.id}
}

// Duration returns the span's duration (zero until Finish).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// Finish stops the span. Finishing the root span finalizes the trace:
// tail-sampling decides keep/drop, kept traces are copied into the flight
// recorder, and the arena returns to the pool. Finishing twice is a no-op.
// All child spans must be finished before the root (the call sites here
// are strictly nested defers, which guarantees it).
func (s *Span) Finish() {
	if s == nil || s.done {
		return
	}
	s.done = true
	t := s.at.tr
	s.dur = t.now().Sub(s.start)
	if s.root {
		t.finishTrace(s.at, s)
	}
}

func (t *Tracer) finishTrace(at *activeTrace, root *Span) {
	t.traces.Inc()
	t.rootDur.ObserveDuration(root.dur)

	used := int(at.used.Load())
	dropped := 0
	if used > len(at.spans) {
		dropped = used - len(at.spans)
		used = len(at.spans)
	}
	if dropped > 0 {
		t.spansDropped.Add(int64(dropped))
	}

	errored := false
	for i := 0; i < used; i++ {
		if at.spans[i].err {
			errored = true
			break
		}
	}
	var reason string
	var keptCtr *obs.Counter
	switch {
	case errored:
		reason, keptCtr = "error", t.keptError
	case t.slow > 0 && root.dur >= t.slow:
		reason, keptCtr = "slow", t.keptSlow
	case t.sampleHit():
		reason, keptCtr = "sampled", t.keptSampled
	}
	if reason != "" {
		rec := at.record(reason, used, dropped)
		t.recent.add(rec)
		if reason != "sampled" {
			t.slowed.add(rec)
		}
		t.pinWorst(rec)
		keptCtr.Inc()
	}
	at.used.Store(0)
	t.pool.Put(at)
}

// SpanContextOf extracts the current span identity from ctx: the active
// local span if any, else a remote context installed by ContextWithRemote,
// else the zero SpanContext.
func SpanContextOf(ctx context.Context) SpanContext {
	if sp, ok := ctx.Value(spanKey{}).(*Span); ok && sp != nil {
		return sp.Context()
	}
	if rsc, ok := ctx.Value(remoteKey{}).(SpanContext); ok {
		return rsc
	}
	return SpanContext{}
}

// ContextWithRemote returns a context carrying sc as a REMOTE parent: the
// next StartSpan becomes a local root that continues sc's trace. Invalid
// contexts are ignored.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}
