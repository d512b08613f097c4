package server

import (
	"io"
	"log/slog"
	"net/http"
	"time"

	"wmsketch/internal/obs"
	"wmsketch/internal/trace"
	"wmsketch/internal/wire"
)

// Serving instrumentation. Every HTTP route is registered through
// Server.handle, which pre-resolves that route's instrument handles at
// registration time — the per-request path touches only atomics (obs's
// zero-allocation contract) plus the two small wrapper structs every
// middleware needs anyway. The same registry also carries the core
// training/checkpoint families and, in cluster mode, the gossip families
// (cluster.Config.Registry), so GET /metrics is one coherent exposition
// for the whole process.

// serverMetrics holds the process registry and the pre-registered
// serving/core handles. Immutable after newServerMetrics.
type serverMetrics struct {
	reg *obs.Registry

	inFlight  *obs.Gauge
	requests  *obs.CounterVec   // {route, code class}
	errors    *obs.CounterVec   // {route}; 5xx responses and handler panics
	latency   *obs.HistogramVec // {route}
	bodyBytes *obs.CounterVec   // {route, dir}

	updatesApplied *obs.Counter
	batchSize      *obs.Histogram
	predicts       *obs.Counter
	estimates      *obs.Counter

	saves      *obs.Counter
	restores   *obs.Counter
	saveDur    *obs.Histogram
	restoreDur *obs.Histogram
	refreshes  *obs.Counter

	// bin carries the binary hot protocol families (binproto.go); they are
	// registered unconditionally so the exposition is stable whether or not
	// a binary listener is running.
	bin binMetrics
}

// binOpInstruments are one binary op's pre-resolved handles, the analog of
// routeInstruments: dispatch and instrumentation share one table, so an op
// cannot be served uninstrumented.
type binOpInstruments struct {
	dur      *obs.Histogram
	statuses [3]*obs.Counter // indexed by wire status code
}

func (oi *binOpInstruments) status(st byte) *obs.Counter {
	if int(st) >= len(oi.statuses) {
		st = 2
	}
	return oi.statuses[st]
}

// binStatusLabels are the status-label values, indexed by wire status code.
var binStatusLabels = [3]string{"ok", "bad_request", "error"}

// binMetrics holds the wmbin_* families. Immutable after newServerMetrics.
type binMetrics struct {
	connsTotal *obs.Counter
	connsOpen  *obs.Gauge
	connErrors *obs.Counter
	inFlight   *obs.Gauge
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter
	requests   *obs.CounterVec   // {op, status}
	duration   *obs.HistogramVec // {op}

	ops map[byte]*binOpInstruments
}

func (m *binMetrics) register(reg *obs.Registry) {
	m.connsTotal = reg.Counter("wmbin_connections_total",
		"binary-protocol connections accepted")
	m.connsOpen = reg.Gauge("wmbin_connections_open",
		"binary-protocol connections currently open")
	m.connErrors = reg.Counter("wmbin_connection_errors_total",
		"connections failed at the frame level (bad handshake, CRC mismatch, write timeout)")
	m.inFlight = reg.Gauge("wmbin_in_flight_requests",
		"binary requests currently executing")
	bytes := reg.CounterVec("wmbin_bytes_total",
		"frame bytes read (in) and written (out)", "dir")
	m.bytesIn = bytes.With("in")
	m.bytesOut = bytes.With("out")
	m.requests = reg.CounterVec("wmbin_requests_total",
		"binary requests completed, by op and status", "op", "status")
	m.duration = reg.HistogramVec("wmbin_request_duration_seconds",
		"binary request wall time from dispatch to response queue",
		obs.LatencyBuckets, "op")
	m.ops = make(map[byte]*binOpInstruments)
	for _, op := range []byte{wire.OpUpdate, wire.OpPredict, wire.OpEstimate, wire.OpPing} {
		name := wire.OpName(op)
		oi := &binOpInstruments{dur: m.duration.With(name)}
		for st, label := range binStatusLabels {
			oi.statuses[st] = m.requests.With(name, label)
		}
		m.ops[op] = oi
	}
}

// op returns the pre-resolved instruments for one op.
func (m *binMetrics) op(op byte) *binOpInstruments { return m.ops[op] }

// newServerMetrics registers the serving and core families and the
// backend-sourced gauges. It reads backend state through s.withBackend, so
// a scrape can never race a checkpoint restore's backend swap.
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{reg: reg}

	m.inFlight = reg.Gauge("wmserve_http_in_flight_requests",
		"requests currently being handled")
	m.requests = reg.CounterVec("wmserve_http_requests_total",
		"requests completed, by route and status-code class", "route", "code")
	m.errors = reg.CounterVec("wmserve_http_request_errors_total",
		"requests that ended in a 5xx response or a handler panic", "route")
	m.latency = reg.HistogramVec("wmserve_http_request_duration_seconds",
		"request wall time from middleware entry to handler return",
		obs.LatencyBuckets, "route")
	m.bodyBytes = reg.CounterVec("wmserve_http_body_bytes_total",
		"request bytes read (in) and response bytes written (out)", "route", "dir")

	m.updatesApplied = reg.Counter("wmcore_updates_applied_total",
		"training examples applied to the backend")
	m.batchSize = reg.Histogram("wmcore_update_batch_size",
		"examples per applied update batch", obs.BatchBuckets)
	m.predicts = reg.Counter("wmserve_predicts_total", "predict queries answered")
	m.estimates = reg.Counter("wmserve_estimates_total", "weight estimates answered")

	m.saves = reg.Counter("wmcore_checkpoint_saves_total", "checkpoints written")
	m.restores = reg.Counter("wmcore_checkpoint_restores_total",
		"backend swaps from serialized state (file restore and upload)")
	m.saveDur = reg.Histogram("wmcore_checkpoint_save_duration_seconds",
		"checkpoint serialization and atomic rename", obs.LatencyBuckets)
	m.restoreDur = reg.Histogram("wmcore_checkpoint_restore_duration_seconds",
		"backend reconstruction from serialized state", obs.LatencyBuckets)
	m.refreshes = reg.Counter("wmcore_snapshot_refreshes_total",
		"sharded query-snapshot merges (refresh loop and /v1/sync)")

	m.bin.register(reg)

	reg.GaugeFunc("wmcore_steps", "backend training step counter",
		func() float64 {
			var v int64
			s.withBackend(func(b learner) { v = b.Steps() })
			return float64(v)
		})
	reg.GaugeFunc("wmcore_memory_bytes", "backend model memory footprint",
		func() float64 {
			var v int
			s.withBackend(func(b learner) { v = b.MemoryBytes() })
			return float64(v)
		})
	reg.GaugeFunc("wmserve_uptime_seconds", "seconds since the server was constructed",
		func() float64 { return time.Since(s.start).Seconds() })
	return m
}

// codeClasses are the status-code class labels, indexed by code/100 - 1.
var codeClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// routeInstruments are one route's pre-resolved handles.
type routeInstruments struct {
	codes    [5]*obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
}

func (m *serverMetrics) route(pattern string) *routeInstruments {
	ri := &routeInstruments{
		errors:   m.errors.With(pattern),
		latency:  m.latency.With(pattern),
		bytesIn:  m.bodyBytes.With(pattern, "in"),
		bytesOut: m.bodyBytes.With(pattern, "out"),
	}
	for i, class := range codeClasses {
		ri.codes[i] = m.requests.With(pattern, class)
	}
	return ri
}

// statusWriter captures the response status and byte count. It forwards
// Flush so streaming handlers (checkpoint download, cluster pull) keep
// their incremental writes.
type statusWriter struct {
	http.ResponseWriter
	code int
	n    int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handle registers pattern on the mux wrapped in the metrics + tracing
// middleware and records it so tests can enumerate every instrumented
// route. Every request gets a span named after the route pattern; an
// incoming W3C traceparent header continues the caller's trace (this is
// how a gossip round on node A links to the push handler on node B). The
// span finishes — and the tail-sampling decision runs — after the status
// code is known, so 5xx responses and panics are always kept.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	ri := s.met.route(pattern)
	s.routePatterns = append(s.routePatterns, pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.met.inFlight.Inc()
		began := time.Now()
		ctx := r.Context()
		if remote, ok := trace.Extract(r.Header); ok {
			ctx = trace.ContextWithRemote(ctx, remote)
		}
		ctx, span := s.tracer.StartSpan(ctx, pattern)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		cb := &countingReader{rc: r.Body}
		r.Body = cb
		logReq := func(level slog.Level, msg string, code int, elapsed time.Duration) {
			if !s.logger.Enabled(ctx, level) {
				return
			}
			s.logger.LogAttrs(ctx, level, msg,
				slog.String("route", pattern),
				slog.Int("code", code),
				slog.Duration("elapsed", elapsed),
				slog.Int64("bytes_in", cb.n),
				slog.Int64("bytes_out", sw.n))
		}
		defer func() {
			s.met.inFlight.Dec()
			elapsed := time.Since(began)
			ri.latency.ObserveDuration(elapsed)
			ri.bytesIn.Add(cb.n)
			ri.bytesOut.Add(sw.n)
			code := sw.code
			if p := recover(); p != nil {
				// A panicking handler (e.g. the pull stream aborting
				// mid-write) never completed a response; account it as a
				// server error and let net/http's recovery see the panic.
				code = http.StatusInternalServerError
				ri.codes[4].Inc()
				ri.errors.Inc()
				span.SetError()
				logReq(slog.LevelError, "handler panic", code, elapsed)
				span.Finish()
				panic(p)
			}
			if code == 0 {
				code = http.StatusOK
			}
			if cls := code/100 - 1; cls >= 0 && cls < len(ri.codes) {
				ri.codes[cls].Inc()
			}
			if code >= 500 {
				ri.errors.Inc()
				span.SetError()
			}
			// Log before Finish: the root's arena recycles once it finishes,
			// so the span context in ctx is only valid until then.
			if code >= 500 {
				logReq(slog.LevelWarn, "request failed", code, elapsed)
			} else {
				logReq(slog.LevelDebug, "request", code, elapsed)
			}
			span.Finish()
		}()
		h(sw, r)
	})
}

// countingReader counts bytes the handler reads off the request body.
type countingReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

// MetricsRegistry exposes the process registry (the /metrics source) for
// tests.
func (s *Server) MetricsRegistry() *obs.Registry { return s.met.reg }

// Tracer exposes the server's flight recorder, whose slowest trace
// wmbench -serve-bench embeds in its report.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// RoutePatterns lists every pattern registered through the instrumented
// mux, in registration order.
func (s *Server) RoutePatterns() []string {
	out := make([]string, len(s.routePatterns))
	copy(out, s.routePatterns)
	return out
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.met.reg.WritePrometheus(w)
}
