package core

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
)

// Sharded is a parallel learner that scales WM-/AWM-Sketch training across
// cores, realizing the asynchronous-update extension sketched in Section 9
// of the paper. The incoming stream is partitioned round-robin across P
// workers. Each worker owns a *private* sketch and heap — no shared mutable
// state on the update path at all — and the per-shard models are
// periodically merged into a read-only snapshot by exploiting Count-Sketch
// linearity (internal/sketch/merge.go): the average of the shard sketches
// is exactly the sketch of the averaged shard models (parameter mixing).
//
// Queries (Predict/Estimate/TopK) are served from the most recent merged
// snapshot under a read lock, so they never contend with training beyond
// the snapshot swap. The snapshot refreshes every SyncEvery updates and on
// demand via Sync.
//
// Concurrency contract: Update may be called from any number of
// goroutines. The vector passed to Update is retained until a worker
// processes it and must not be mutated afterwards. Close must not run
// concurrently with Update. Config.Loss and Config.Schedule must be
// stateless (all implementations in internal/linear are).
type Sharded struct {
	cfg      Config
	opt      ShardedOptions
	workers  []*shardWorker
	memBytes int

	next    atomic.Uint64 // round-robin router
	pending atomic.Int64  // updates routed since construction
	closed  atomic.Bool

	syncMu    sync.Mutex // single-flight snapshot/merge
	viewMu    sync.RWMutex
	view      *Mixed
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// ShardVariant selects the per-shard model type.
type ShardVariant int

const (
	// ShardAWM gives each worker a private AWM-Sketch (the default; the
	// paper's best-performing configuration).
	ShardAWM ShardVariant = iota
	// ShardWM gives each worker a private basic WM-Sketch.
	ShardWM
)

// ShardedOptions configures the parallel learner.
type ShardedOptions struct {
	// Workers is the number of training goroutines. Defaults to
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueSize is each worker's input buffer in examples. Defaults to 256.
	QueueSize int
	// SyncEvery refreshes the merged query snapshot after this many routed
	// updates. 0 selects the default (65536); negative disables automatic
	// refresh (snapshots then only rebuild on explicit Sync/Close).
	SyncEvery int
	// Variant selects the per-shard model.
	Variant ShardVariant
}

func (o *ShardedOptions) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 256
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 65536
	}
}

// shardMsg is one unit of work for a worker: a training example, a batch
// of examples, (when snap is non-nil) a request to report the worker's
// current state, or (when freeze is non-nil) a request to pause in place.
// Control requests ride the same FIFO channel as examples, so they reflect
// every example routed to that worker before the request.
type shardMsg struct {
	x      stream.Vector
	y      int
	batch  []stream.Example
	snap   chan<- *shardSnapshot
	freeze *shardFreeze
}

// shardFreeze quiesces a worker for checkpointing: the worker signals ready
// and then blocks until release is closed. While every worker is parked
// between its ready send and the release, the checkpoint writer may read
// worker-private model state directly — the channel handshake provides the
// happens-before edges in both directions.
type shardFreeze struct {
	ready   chan<- struct{}
	release <-chan struct{}
}

// shardSnapshot is a worker's state handed to the merger: a deep copy with
// the global scale folded in and (for AWM shards) the active set written
// back, plus the worker's heavy-hitter candidates with their true-scale
// weights (exact for AWM active sets, heap estimates for WM).
type shardSnapshot struct {
	folded *sketch.CountSketch
	heavy  []stream.Weighted
	steps  int64
}

type shardWorker struct {
	in    chan shardMsg
	model sketchModel
}

// sketchModel is the contract one WM- or AWM-Sketch satisfies: Sharded
// trains one per worker and Concurrent wraps one behind a lock. In addition
// to normal learning it can serialize itself, export a Snapshot for the
// cluster layer, produce a folded deep copy of its sketch (scale applied,
// exact heap weights reconciled), and report its heavy-hitter candidates
// with true-scale weights.
type sketchModel interface {
	stream.Learner
	io.WriterTo
	Snapshotter
	Steps() int64
	foldedSketch() *sketch.CountSketch
	heavyWeights() []stream.Weighted
}

// foldedSketch returns a deep copy of the WM-Sketch's projection with the
// lazy decay factor folded into the buckets, so that √s·median queries on
// the copy return true-scale weights.
func (w *WMSketch) foldedSketch() *sketch.CountSketch {
	c := w.cs.Clone()
	if w.scale != 1 {
		c.Scale(w.scale)
	}
	return c
}

func (w *WMSketch) heavyWeights() []stream.Weighted {
	entries := w.heap.Entries()
	out := make([]stream.Weighted, len(entries))
	for i, e := range entries {
		out[i] = stream.Weighted{Index: e.Key, Weight: w.scale * e.Weight}
	}
	return out
}

// rawSketch returns a deep copy of the AWM-Sketch's projection with every
// active-set weight written back (sketch(i) += S[i] − Query(i), the same
// reconciliation Algorithm 2 performs on eviction) but the decay scale NOT
// folded, so it answers √s·scale·median queries for *all* features.
func (a *AWMSketch) rawSketch() *sketch.CountSketch {
	c := a.cs.Clone()
	for _, e := range a.active.Entries() {
		delta := e.Weight - a.sqrtS*c.Estimate(e.Key)
		c.Update(e.Key, delta/a.sqrtS)
	}
	return c
}

// foldedSketch is rawSketch with the decay factor folded in, so the copy
// answers √s·median queries directly.
func (a *AWMSketch) foldedSketch() *sketch.CountSketch {
	c := a.rawSketch()
	if a.scale != 1 {
		c.Scale(a.scale)
	}
	return c
}

func (a *AWMSketch) heavyWeights() []stream.Weighted {
	entries := a.active.Entries()
	out := make([]stream.Weighted, len(entries))
	for i, e := range entries {
		out[i] = stream.Weighted{Index: e.Key, Weight: e.Weight * a.scale}
	}
	return out
}

// NewSharded returns a parallel learner over cfg with opt.Workers training
// goroutines already running. Callers must Close it to stop the workers and
// fold the final state into the query snapshot.
func NewSharded(cfg Config, opt ShardedOptions) *Sharded {
	cfg.fill()
	opt.fill()
	models := make([]sketchModel, opt.Workers)
	for i := range models {
		if opt.Variant == ShardWM {
			models[i] = NewWMSketch(cfg)
		} else {
			models[i] = NewAWMSketch(cfg)
		}
	}
	return newShardedFromModels(cfg, opt, models)
}

// newShardedFromModels assembles a sharded learner around existing models
// — freshly constructed by NewSharded, or deserialized by LoadSharded — and
// starts its workers. cfg must be filled and opt final.
func newShardedFromModels(cfg Config, opt ShardedOptions, models []sketchModel) *Sharded {
	s := &Sharded{cfg: cfg, opt: opt, workers: make([]*shardWorker, len(models))}
	for i, m := range models {
		s.workers[i] = &shardWorker{in: make(chan shardMsg, opt.QueueSize), model: m}
		s.memBytes += m.MemoryBytes()
	}
	// Start with an empty (zero-sketch) snapshot so queries before the
	// first sync are well defined.
	s.view = EmptyMixed(s.mixOptions())
	s.wg.Add(len(s.workers))
	for _, w := range s.workers {
		go s.runWorker(w)
	}
	return s
}

func (s *Sharded) runWorker(w *shardWorker) {
	defer s.wg.Done()
	for msg := range w.in {
		switch {
		case msg.freeze != nil:
			msg.freeze.ready <- struct{}{}
			<-msg.freeze.release
		case msg.snap != nil:
			msg.snap <- w.snapshot()
		case msg.batch != nil:
			for _, ex := range msg.batch {
				w.model.Update(ex.X, ex.Y)
			}
		default:
			w.model.Update(msg.x, msg.y)
		}
	}
}

func (w *shardWorker) snapshot() *shardSnapshot {
	return &shardSnapshot{
		folded: w.model.foldedSketch(),
		heavy:  w.model.heavyWeights(),
		steps:  w.model.Steps(),
	}
}

// Update routes example (x, y) to a worker. It blocks only when the
// worker's queue is full, and briefly when it is the update that triggers a
// periodic snapshot refresh. High-throughput producers should prefer
// UpdateBatch: a channel synchronization per example costs more than a
// depth-1 sketch update itself.
func (s *Sharded) Update(x stream.Vector, y int) {
	if s.closed.Load() {
		panic("core: Update on closed Sharded")
	}
	i := int(s.next.Add(1)-1) % len(s.workers)
	s.workers[i].in <- shardMsg{x: x, y: y}
	if n := s.pending.Add(1); s.opt.SyncEvery > 0 && n%int64(s.opt.SyncEvery) == 0 {
		s.Sync()
	}
}

// UpdateBatch routes a batch of examples, splitting it into one contiguous
// chunk per worker so the channel synchronization is amortized over
// len(batch)/Workers examples. The starting worker rotates per call, so
// repeated batches spread load evenly. The batch (and the vectors inside)
// must not be mutated after the call.
func (s *Sharded) UpdateBatch(batch []stream.Example) {
	if s.closed.Load() {
		panic("core: UpdateBatch on closed Sharded")
	}
	n := len(batch)
	if n == 0 {
		return
	}
	p := len(s.workers)
	chunk := (n + p - 1) / p
	start := int(s.next.Add(1)-1) % p
	for i, c := 0, 0; i < n; i, c = i+chunk, c+1 {
		end := i + chunk
		if end > n {
			end = n
		}
		s.workers[(start+c)%p].in <- shardMsg{batch: batch[i:end]}
	}
	prev := s.pending.Add(int64(n)) - int64(n)
	if se := int64(s.opt.SyncEvery); se > 0 && (prev+int64(n))/se > prev/se {
		s.Sync()
	}
}

// Sync rebuilds the merged query snapshot from the current worker states.
// It blocks until every example routed before the call has been applied
// (the snapshot request travels the same FIFO queues as the examples).
// Concurrent Syncs coalesce behind a single-flight lock.
func (s *Sharded) Sync() {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.closed.Load() {
		return // final snapshot was installed by Close
	}
	replies := make([]chan *shardSnapshot, len(s.workers))
	for i, w := range s.workers {
		ch := make(chan *shardSnapshot, 1)
		replies[i] = ch
		w.in <- shardMsg{snap: ch}
	}
	snaps := make([]*shardSnapshot, len(replies))
	for i, ch := range replies {
		snaps[i] = <-ch
	}
	s.install(s.buildView(snaps))
}

// Close stops the workers, waits for queued examples to drain, and installs
// the final merged snapshot. Queries remain valid after Close; Update
// panics. Close is idempotent and must not race with Update.
func (s *Sharded) Close() {
	s.closeOnce.Do(func() {
		s.syncMu.Lock()
		defer s.syncMu.Unlock()
		s.closed.Store(true)
		for _, w := range s.workers {
			close(w.in)
		}
		s.wg.Wait()
		// Workers have exited; wg.Wait is the happens-before barrier that
		// makes their private state safe to read directly.
		snaps := make([]*shardSnapshot, len(s.workers))
		for i, w := range s.workers {
			snaps[i] = w.snapshot()
		}
		s.install(s.buildView(snaps))
	})
}

func (s *Sharded) install(v *Mixed) {
	s.viewMu.Lock()
	s.view = v
	s.viewMu.Unlock()
}

func (s *Sharded) currentView() *Mixed {
	s.viewMu.RLock()
	v := s.view
	s.viewMu.RUnlock()
	return v
}

func (s *Sharded) mixOptions() MixOptions {
	return MixOptions{Depth: s.cfg.Depth, Width: s.cfg.Width, Seed: s.cfg.Seed, HeapSize: s.cfg.HeapSize}
}

// buildView merges shard snapshots into a read-only model. The folded shard
// sketches go through core.MixSnapshots — the same example-count-weighted
// parameter mixing the cluster layer uses across machines — which also
// gives every heavy-key candidate a mixed "exact" weight that Estimate and
// TopK prefer over the (collision-noisier) merged-sketch query.
func (s *Sharded) buildView(snaps []*shardSnapshot) *Mixed {
	in := make([]Snapshot, len(snaps))
	for i, sn := range snaps {
		in[i] = Snapshot{
			// Zero-padded so the canonical Origin order equals worker order.
			Origin: fmt.Sprintf("%06d", i),
			CS:     sn.folded,
			Scale:  1, // shard snapshots arrive scale-folded
			Heavy:  sn.heavy,
			Steps:  sn.steps,
		}
	}
	v, err := MixSnapshots(in, s.mixOptions())
	if err != nil {
		// Same shape and seed by construction; mixing cannot fail.
		panic("core: shard merge: " + err.Error())
	}
	return v
}

// Predict evaluates the margin under the current merged snapshot.
func (s *Sharded) Predict(x stream.Vector) float64 {
	return s.currentView().Predict(x)
}

// Estimate returns the merged-model weight estimate for feature i, as of
// the last snapshot refresh.
func (s *Sharded) Estimate(i uint32) float64 {
	return s.currentView().Estimate(i)
}

// TopK returns the k heaviest features of the merged model, as of the last
// snapshot refresh.
func (s *Sharded) TopK(k int) []stream.Weighted {
	return s.currentView().TopK(k)
}

// Steps returns the number of updates routed so far (not necessarily yet
// applied by the workers).
func (s *Sharded) Steps() int64 { return s.pending.Load() }

// Workers returns the number of training goroutines, which after
// LoadSharded is the checkpoint's count rather than the requested one.
func (s *Sharded) Workers() int { return len(s.workers) }

// MemoryBytes reports the aggregate cost-model footprint of the training
// state: P private shards. The merged query snapshot is transient and not
// charged.
func (s *Sharded) MemoryBytes() int { return s.memBytes }

var _ stream.Learner = (*Sharded)(nil)
