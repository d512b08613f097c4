// Package server exposes a WM-/AWM-Sketch learner over HTTP/JSON: the
// paper's target deployment is continuous monitoring, where classifiers are
// trained *and queried* live over a stream, so the repository needs a
// network-facing layer rather than batch CLIs only. The server owns one
// backend — a core.Sharded parallel learner, or one WM-/AWM-Sketch behind a
// core.Concurrent lock — through a single learner interface, and serves
// updates, predictions, weight estimates, top-K queries, stats, and
// checkpoint save/restore. See SERVING.md for the API reference and
// architecture notes.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"wmsketch/internal/cluster"
	"wmsketch/internal/core"
	"wmsketch/internal/stream"
	"wmsketch/internal/trace"
)

// maxRequestBytes bounds any request body: update batches, predict vectors,
// checkpoint requests. Network input is untrusted; a body over the limit is
// rejected before it is buffered.
const maxRequestBytes = 8 << 20

// Backend kinds selectable at construction.
const (
	BackendSharded = "sharded" // core.Sharded, AWM shards (parallel training)
	BackendAWM     = "awm"     // core.Concurrent around one AWM-Sketch
	BackendWM      = "wm"      // core.Concurrent around one WM-Sketch
)

// learner is what the server calls on a backend. *core.Sharded and
// *core.Concurrent both satisfy it; for the latter Sync and Close are
// no-ops, since its queries are always current and it runs no goroutines.
type learner interface {
	UpdateBatch(batch []stream.Example)
	Predict(x stream.Vector) float64
	Estimate(i uint32) float64
	TopK(k int) []stream.Weighted
	Steps() int64
	Workers() int
	MemoryBytes() int
	// Sync refreshes the query snapshot so that queries reflect every
	// update routed before the call.
	Sync()
	Close()
	io.WriterTo
	core.Snapshotter
}

// Options configures a Server.
type Options struct {
	// Backend selects the learner: BackendSharded, BackendAWM, or BackendWM.
	// Empty selects BackendSharded.
	Backend string
	// Config is the sketch configuration shared by every backend.
	Config core.Config
	// Sharded configures the parallel learner (BackendSharded only).
	Sharded core.ShardedOptions
	// CheckpointPath is the default path for /v1/checkpoint and the final
	// flush on Close. Empty disables both defaults (explicit paths in
	// checkpoint requests still work).
	CheckpointPath string
	// RefreshInterval bounds query staleness for the sharded backend: a
	// background loop re-merges the query snapshot this often while updates
	// are flowing (the core.Sharded default cadence of one merge per 65536
	// updates is tuned for batch training, not serving). 0 selects 200ms;
	// negative disables the loop (POST /v1/sync still refreshes on demand).
	RefreshInterval time.Duration
	// AuthToken, when set, gates every mutating endpoint (/v1/update,
	// /v1/checkpoint, /v1/checkpoint/upload, /v1/cluster/push) behind a
	// bearer-token check. Read-only endpoints stay open.
	AuthToken string
	// Cluster configures peer-to-peer model replication (CLUSTER.md).
	// Enabled when Peers is non-empty; queries are then served from the
	// cluster-merged view instead of the local backend alone.
	Cluster ClusterOptions
	// Logger receives structured operational logs (request outcomes at
	// debug, failures at warn/error). Nil discards. Callers should wrap the
	// handler with trace.NewLogHandler so log lines carry trace_id; the
	// server uses the logger as given.
	Logger *slog.Logger
	// Trace configures the tracing layer (OBSERVABILITY.md "Tracing").
	// Registry is overridden to the server's own metrics registry so the
	// wmtrace_* families share the /metrics exposition; everything else
	// passes through, zero values selecting the trace package defaults.
	Trace trace.Options
	// Bin configures the binary hot protocol listener (SERVING.md "Binary
	// protocol"); zero values select the defaults. The listener itself is
	// started by ServeBin — these only shape per-connection behavior.
	Bin BinOptions
}

// Server is the HTTP serving layer. It implements http.Handler.
type Server struct {
	opt   Options
	mux   *http.ServeMux
	start time.Time

	// mu guards backend replacement (checkpoint restore swaps the learner);
	// request handlers hold it for read.
	mu      sync.RWMutex
	backend learner // guarded by mu

	// cluster is non-nil when Options.Cluster is enabled.
	cluster *cluster.Node

	// met carries the process metrics registry and every pre-registered
	// handle (metrics.go); routePatterns lists the instrumented routes.
	met           *serverMetrics
	routePatterns []string

	// tracer owns the flight recorder; logger is never nil (discards when
	// unconfigured). Both are fixed at construction.
	tracer *trace.Tracer
	logger *slog.Logger

	stopRefresh chan struct{}
	stopOnce    sync.Once
	refreshWG   sync.WaitGroup

	// binHook, when non-nil, runs at the start of every binary-protocol
	// dispatch. Tests use it to inject slow handlers and force out-of-order
	// completion; it is nil in production.
	binHook func(op byte)
}

// New constructs a Server with a freshly initialized backend.
func New(opt Options) (*Server, error) {
	if opt.Backend == "" {
		opt.Backend = BackendSharded
	}
	var b learner
	switch opt.Backend {
	case BackendSharded:
		b = core.NewSharded(opt.Config, opt.Sharded)
	case BackendAWM:
		b = core.NewConcurrent(core.NewAWMSketch(opt.Config))
	case BackendWM:
		b = core.NewConcurrent(core.NewWMSketch(opt.Config))
	default:
		return nil, fmt.Errorf("server: unknown backend %q", opt.Backend)
	}
	if opt.RefreshInterval == 0 {
		opt.RefreshInterval = 200 * time.Millisecond
	}
	s := &Server{opt: opt, backend: b, start: time.Now(), stopRefresh: make(chan struct{})}
	s.logger = opt.Logger
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	s.met = newServerMetrics(s)
	opt.Trace.Registry = s.met.reg
	s.tracer = trace.New(opt.Trace)
	if opt.Cluster.enabled() {
		if err := s.startCluster(); err != nil {
			b.Close()
			return nil, err
		}
	}
	s.routes()
	if opt.Backend == BackendSharded && opt.RefreshInterval > 0 {
		s.refreshWG.Add(1)
		go s.refreshLoop()
	}
	return s, nil
}

// refreshLoop re-merges the sharded query snapshot whenever updates have
// arrived since the last merge, bounding the staleness of Predict/Estimate/
// TopK answers under continuous training. New starts it for the sharded
// backend only.
func (s *Server) refreshLoop() {
	defer s.refreshWG.Done()
	t := time.NewTicker(s.opt.RefreshInterval)
	defer t.Stop()
	var synced int64 = -1
	for {
		select {
		case <-s.stopRefresh:
			return
		case <-t.C:
			s.withBackend(func(b learner) {
				if steps := b.Steps(); steps != synced {
					b.Sync()
					s.met.refreshes.Inc()
					synced = steps
				}
			})
		}
	}
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.handle("POST /v1/update", s.handleUpdate)
	s.handle("POST /v1/predict", s.handlePredict)
	s.handle("GET /v1/estimate", s.handleEstimateGet)
	s.handle("POST /v1/estimate", s.handleEstimatePost)
	s.handle("GET /v1/topk", s.handleTopK)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("POST /v1/checkpoint", s.handleCheckpoint)
	s.handle("GET /v1/checkpoint/download", s.handleCheckpointDownload)
	s.handle("POST /v1/checkpoint/upload", s.handleCheckpointUpload)
	s.handle("POST /v1/cluster/pull", s.handleClusterPull)
	s.handle("POST /v1/cluster/push", s.handleClusterPush)
	s.handle("GET /v1/cluster/status", s.handleClusterStatus)
	s.handle("POST /v1/sync", s.handleSync)
	s.handle("GET /healthz", s.handleHealthz)
	// The scrape endpoint goes through the same middleware: scrapes show up
	// in the request metrics like any other route.
	s.handle("GET /metrics", s.handleMetrics)
}

// HealthzResponse is the /healthz body: overall status plus, in cluster
// mode, the peer-liveness summary.
type HealthzResponse struct {
	// Status is "ok", or "degraded" when fewer than half the configured
	// peers are alive.
	Status string `json:"status"`
	// Cluster carries peer liveness counts and the degraded bit; omitted
	// outside cluster mode.
	Cluster *cluster.Health `json:"cluster,omitempty"`
}

// handleHealthz reports liveness. The status code is always 200 — a
// degraded node still serves queries, so load balancers must not evict it;
// orchestration that wants to act on partial partitions reads the degraded
// bit from the body (or /v1/cluster/status for per-peer detail).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{Status: "ok"}
	if s.cluster != nil {
		h := s.cluster.Health()
		resp.Cluster = &h
		if h.Degraded {
			resp.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// bodyLimit returns the request-size cap per route: bulk-transfer routes
// (streaming ingest, checkpoint upload, cluster push) legitimately carry
// more than ordinary JSON bodies.
func bodyLimit(r *http.Request) int64 {
	switch r.URL.Path {
	case "/v1/update":
		if isStreamingIngest(r) {
			return maxStreamIngestBytes
		}
	case "/v1/checkpoint/upload", "/v1/cluster/push":
		return maxTransferBytes
	}
	return maxRequestBytes
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, bodyLimit(r))
	s.mux.ServeHTTP(w, r)
}

// Close flushes a final checkpoint to CheckpointPath (when configured) and
// shuts the backend down. It is the graceful-shutdown hook: call it after
// the HTTP listener has drained. Close is idempotent.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stopRefresh) })
	s.refreshWG.Wait()
	if s.cluster != nil {
		s.cluster.Close()
	}
	var err error
	if s.opt.CheckpointPath != "" {
		_, err = s.saveCheckpoint(context.Background(), s.opt.CheckpointPath)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.backend.Close()
	return err
}

// Restore loads a checkpoint from path into the server — the boot-time
// counterpart of POST /v1/checkpoint {"action":"restore"}. In cluster
// mode the restored model is published immediately, which is how a
// restarted node re-announces itself at its pre-restart version.
func (s *Server) Restore(path string) error {
	if err := s.restoreCheckpoint(context.Background(), path); err != nil {
		return err
	}
	_, err := s.publishRestored()
	return err
}

// withBackend runs fn on the active backend under the read lock, so a
// concurrent checkpoint restore (which swaps the backend under the write
// lock and closes the old one) can never retire a backend mid-operation.
func (s *Server) withBackend(fn func(b learner)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.backend)
}

// predict/estimate/topK route queries to the cluster-merged view when
// cluster mode is on (every node's state, weighted by example count) and
// to the local backend otherwise.
func (s *Server) predict(ctx context.Context, x stream.Vector) (margin float64) {
	_, sp := s.tracer.StartSpan(ctx, "backend.predict")
	defer sp.Finish()
	if s.cluster != nil {
		return s.cluster.View().Predict(x)
	}
	s.withBackend(func(b learner) { margin = b.Predict(x) })
	return margin
}

func (s *Server) estimate(i uint32) (est float64) {
	if s.cluster != nil {
		return s.cluster.View().Estimate(i)
	}
	s.withBackend(func(b learner) { est = b.Estimate(i) })
	return est
}

func (s *Server) topK(ctx context.Context, k int) (top []stream.Weighted) {
	_, sp := s.tracer.StartSpan(ctx, "backend.topk")
	defer sp.Finish()
	if s.cluster != nil {
		return s.cluster.View().TopK(k)
	}
	s.withBackend(func(b learner) { top = b.TopK(k) })
	return top
}

// ---- wire types ----

// FeatureJSON is one sparse coordinate.
type FeatureJSON struct {
	I uint32  `json:"i"`
	V float64 `json:"v"`
}

// ExampleJSON is one example, either structured (y, x) or as a raw
// libsvm-format line ("1 3:0.5 7:1.2"), which is parsed server-side.
type ExampleJSON struct {
	Y      int           `json:"y,omitempty"`
	X      []FeatureJSON `json:"x,omitempty"`
	LibSVM string        `json:"libsvm,omitempty"`
}

// UpdateRequest carries one example or a batch.
type UpdateRequest struct {
	Example  *ExampleJSON  `json:"example,omitempty"`
	Examples []ExampleJSON `json:"examples,omitempty"`
}

// UpdateResponse reports how many examples were applied.
type UpdateResponse struct {
	Applied int   `json:"applied"`
	Steps   int64 `json:"steps"`
}

// PredictRequest carries the feature vector to score.
type PredictRequest struct {
	X      []FeatureJSON `json:"x,omitempty"`
	LibSVM string        `json:"libsvm,omitempty"`
}

// PredictResponse is the margin and its sign.
type PredictResponse struct {
	Margin float64 `json:"margin"`
	Label  int     `json:"label"`
}

// EstimateRequest asks for weight estimates of a batch of features.
type EstimateRequest struct {
	Indices []uint32 `json:"indices"`
}

// WeightJSON pairs a feature index with its estimated weight.
type WeightJSON struct {
	I uint32  `json:"i"`
	W float64 `json:"w"`
}

// EstimateResponse returns the requested estimates in request order.
type EstimateResponse struct {
	Weights []WeightJSON `json:"weights"`
}

// TopKResponse returns the heaviest features, descending |weight|.
type TopKResponse struct {
	K        int          `json:"k"`
	Features []WeightJSON `json:"features"`
}

// StatsResponse is the /v1/stats document.
type StatsResponse struct {
	Backend       string  `json:"backend"`
	Width         int     `json:"width"`
	Depth         int     `json:"depth"`
	HeapSize      int     `json:"heap_size"`
	Workers       int     `json:"workers,omitempty"`
	Steps         int64   `json:"steps"`
	Updates       int64   `json:"updates"`
	Predicts      int64   `json:"predicts"`
	Estimates     int64   `json:"estimates"`
	Restores      int64   `json:"restores"`
	MemoryBytes   int     `json:"memory_bytes"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Cluster fields, present only in cluster mode; /v1/cluster/status has
	// the full replication picture.
	ClusterSelf  string `json:"cluster_self,omitempty"`
	ClusterPeers int    `json:"cluster_peers,omitempty"`
}

// CheckpointRequest triggers a save or restore. Path defaults to the
// server's configured CheckpointPath.
type CheckpointRequest struct {
	Action string `json:"action"` // "save" or "restore"
	Path   string `json:"path,omitempty"`
}

// CheckpointResponse reports the completed action.
type CheckpointResponse struct {
	Action string `json:"action"`
	Path   string `json:"path"`
	Bytes  int64  `json:"bytes,omitempty"`
	// Warning surfaces restore-time caveats that are not errors, e.g. a
	// cluster-mode restore to an older model that version monotonicity
	// keeps out of the merged view.
	Warning string `json:"warning,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- helpers ----

// jsonBufPool recycles response-encoding buffers across requests; encoding
// into a pooled buffer (instead of streaming json.NewEncoder straight at
// the ResponseWriter) also yields a Content-Length and a single Write.
var jsonBufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	jsonBufPool.Put(buf)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	// Exactly one JSON value per body: trailing bytes are malformed here
	// just as they are on the binary wire (the conformance suite holds the
	// two paths to the same error classes).
	if dec.More() {
		writeError(w, http.StatusBadRequest, "trailing data after request body")
		return false
	}
	return true
}

// toExample validates one wire example into a stream.Example. Labels must be
// ±1 in structured form; libsvm lines go through the hardened parser.
func toExample(e *ExampleJSON) (stream.Example, error) {
	if e.LibSVM != "" {
		if e.Y != 0 || len(e.X) != 0 {
			return stream.Example{}, errors.New("give either libsvm or (y, x), not both")
		}
		return stream.ParseLibSVMLine(e.LibSVM)
	}
	if e.Y != 1 && e.Y != -1 {
		return stream.Example{}, fmt.Errorf("label must be +1 or -1, got %d", e.Y)
	}
	x, err := toVector(e.X)
	if err != nil {
		return stream.Example{}, err
	}
	return stream.Example{X: x, Y: e.Y}, nil
}

func toVector(fs []FeatureJSON) (stream.Vector, error) {
	x := make(stream.Vector, len(fs))
	for i, f := range fs {
		if math.IsNaN(f.V) || math.IsInf(f.V, 0) {
			return nil, fmt.Errorf("feature %d has non-finite value", f.I)
		}
		x[i] = stream.Feature{Index: f.I, Value: f.V}
	}
	return x, nil
}

// ---- handlers ----

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if !s.authorized(w, r) {
		return
	}
	if isStreamingIngest(r) {
		s.handleStreamingUpdate(w, r)
		return
	}
	var req UpdateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	wire := req.Examples
	if req.Example != nil {
		wire = append([]ExampleJSON{*req.Example}, wire...)
	}
	if len(wire) == 0 {
		writeError(w, http.StatusBadRequest, "no examples")
		return
	}
	batch := make([]stream.Example, len(wire))
	for i := range wire {
		ex, err := toExample(&wire[i])
		if err != nil {
			writeError(w, http.StatusBadRequest, "example %d: %v", i, err)
			return
		}
		batch[i] = ex
	}
	steps := s.applyBatch(r.Context(), batch)
	writeJSON(w, http.StatusOK, UpdateResponse{Applied: len(batch), Steps: steps})
}

// applyBatch trains the backend on a validated batch and returns the step
// counter after it. The span pair here ("backend.apply" around the lock,
// "learner.update" around the model mutation) is the tree the smoke test
// asserts under every update's route span.
func (s *Server) applyBatch(ctx context.Context, batch []stream.Example) (steps int64) {
	if len(batch) == 0 {
		return 0
	}
	actx, apply := s.tracer.StartSpan(ctx, "backend.apply")
	s.withBackend(func(b learner) {
		_, upd := s.tracer.StartSpan(actx, "learner.update")
		b.UpdateBatch(batch)
		upd.Finish()
		steps = b.Steps()
	})
	apply.Finish()
	s.met.updatesApplied.Add(int64(len(batch)))
	s.met.batchSize.Observe(float64(len(batch)))
	return steps
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if !decodeBody(w, r, &req) {
		return
	}
	var x stream.Vector
	if req.LibSVM != "" {
		// Predict-only callers may not have a label; accept a bare feature
		// list by prepending a dummy label for the parser.
		ex, err := stream.ParseLibSVMLine("1 " + req.LibSVM)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad libsvm features: %v", err)
			return
		}
		x = ex.X
	} else {
		var err error
		if x, err = toVector(req.X); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	margin := s.predict(r.Context(), x)
	label := -1
	if margin > 0 {
		label = 1
	}
	s.met.predicts.Inc()
	writeJSON(w, http.StatusOK, PredictResponse{Margin: margin, Label: label})
}

func (s *Server) handleEstimateGet(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("i")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter i")
		return
	}
	i, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad index %q", raw)
		return
	}
	est := s.estimate(uint32(i))
	s.met.estimates.Inc()
	writeJSON(w, http.StatusOK, EstimateResponse{
		Weights: []WeightJSON{{I: uint32(i), W: est}},
	})
}

// maxEstimateBatch bounds one POST /v1/estimate request.
const maxEstimateBatch = 65536

func (s *Server) handleEstimatePost(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Indices) == 0 {
		writeError(w, http.StatusBadRequest, "no indices")
		return
	}
	if len(req.Indices) > maxEstimateBatch {
		writeError(w, http.StatusBadRequest, "too many indices (%d > %d)", len(req.Indices), maxEstimateBatch)
		return
	}
	out := make([]WeightJSON, len(req.Indices))
	for i, idx := range req.Indices {
		out[i] = WeightJSON{I: idx, W: s.estimate(idx)}
	}
	s.met.estimates.Add(int64(len(out)))
	writeJSON(w, http.StatusOK, EstimateResponse{Weights: out})
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "bad k %q", raw)
			return
		}
		k = v
	}
	top := s.topK(r.Context(), k)
	out := make([]WeightJSON, len(top))
	for i, e := range top {
		out[i] = WeightJSON{I: e.Index, W: e.Weight}
	}
	writeJSON(w, http.StatusOK, TopKResponse{K: k, Features: out})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Backend:       s.opt.Backend,
		Width:         s.opt.Config.Width,
		Depth:         s.opt.Config.Depth,
		HeapSize:      s.opt.Config.HeapSize,
		Updates:       s.met.updatesApplied.Value(),
		Predicts:      s.met.predicts.Value(),
		Estimates:     s.met.estimates.Value(),
		Restores:      s.met.restores.Value(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	s.withBackend(func(b learner) {
		resp.Steps = b.Steps()
		resp.Workers = b.Workers()
		resp.MemoryBytes = b.MemoryBytes()
	})
	if s.cluster != nil {
		resp.ClusterSelf = s.cluster.Self()
		resp.ClusterPeers = len(s.opt.Cluster.Peers)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !s.authorized(w, r) {
		return
	}
	var req CheckpointRequest
	if !decodeBody(w, r, &req) {
		return
	}
	path := req.Path
	if path == "" {
		path = s.opt.CheckpointPath
	}
	if path == "" {
		writeError(w, http.StatusBadRequest, "no checkpoint path configured or given")
		return
	}
	switch req.Action {
	case "save":
		n, err := s.saveCheckpoint(r.Context(), path)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "save: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, CheckpointResponse{Action: "save", Path: path, Bytes: n})
	case "restore":
		if err := s.restoreCheckpoint(r.Context(), path); err != nil {
			writeError(w, http.StatusInternalServerError, "restore: %v", err)
			return
		}
		warning, err := s.publishRestored()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "restored but publish failed: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, CheckpointResponse{Action: "restore", Path: path, Warning: warning})
	default:
		writeError(w, http.StatusBadRequest, "action must be save or restore, got %q", req.Action)
	}
}

// handleSync forces a sharded snapshot refresh: after it returns, queries
// reflect every update routed before the call. No-op for single-model
// backends, whose queries are always current. In cluster mode it also
// publishes the refreshed local model into the cluster view, so queries
// that follow see local progress without waiting for a gossip round.
func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	var steps int64
	s.withBackend(func(b learner) {
		b.Sync()
		steps = b.Steps()
	})
	if s.opt.Backend == BackendSharded {
		s.met.refreshes.Inc()
	}
	if s.cluster != nil {
		if _, _, err := s.cluster.PublishLocal(); err != nil {
			writeError(w, http.StatusInternalServerError, "publish: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, UpdateResponse{Steps: steps})
}

// saveCheckpoint writes the backend state to path atomically (temp file +
// rename), so a crash mid-write never clobbers the previous checkpoint.
func (s *Server) saveCheckpoint(ctx context.Context, path string) (int64, error) {
	_, sp := s.tracer.StartSpan(ctx, "checkpoint.save")
	defer sp.Finish()
	began := time.Now()
	tmp, err := os.CreateTemp(filepath.Dir(path), ".wmserve-ckpt-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	var n int64
	var werr error
	s.withBackend(func(b learner) { n, werr = b.WriteTo(tmp) })
	if werr != nil {
		tmp.Close()
		return n, werr
	}
	if err := tmp.Close(); err != nil {
		return n, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return n, err
	}
	s.met.saves.Inc()
	s.met.saveDur.ObserveDuration(time.Since(began))
	return n, nil
}

// restoreCheckpoint replaces the backend with the state at path. The new
// learner is fully constructed before the swap; requests racing the restore
// see either the old or the new backend, never a partial one.
func (s *Server) restoreCheckpoint(ctx context.Context, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.restoreFromReader(ctx, f)
}

// restoreFromReader builds a fresh backend from serialized state and swaps
// it in — shared by file restore and POST /v1/checkpoint/upload.
func (s *Server) restoreFromReader(ctx context.Context, f io.Reader) error {
	_, sp := s.tracer.StartSpan(ctx, "checkpoint.restore")
	defer sp.Finish()
	began := time.Now()
	var fresh learner
	switch s.opt.Backend {
	case BackendSharded:
		sh, err := core.LoadSharded(f, s.opt.Config.Loss, s.opt.Config.Schedule, s.opt.Sharded)
		if err != nil {
			return err
		}
		fresh = sh
	case BackendAWM:
		a, err := core.LoadAWMSketch(f, s.opt.Config.Loss, s.opt.Config.Schedule)
		if err != nil {
			return err
		}
		fresh = core.NewConcurrent(a)
	case BackendWM:
		m, err := core.LoadWMSketch(f, s.opt.Config.Loss, s.opt.Config.Schedule)
		if err != nil {
			return err
		}
		fresh = core.NewConcurrent(m)
	}

	s.mu.Lock()
	old := s.backend
	s.backend = fresh
	s.mu.Unlock()
	old.Close()
	// Counts every restore path — file restore, boot-time Restore, and
	// checkpoint upload — since each swaps the backend the same way.
	s.met.restores.Inc()
	s.met.restoreDur.ObserveDuration(time.Since(began))
	return nil
}
