package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"wmsketch/internal/stream"
)

// Sharded is a parallel learner that scales AWM-Sketch training across
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
	geo      *Geometry
	opt      ShardedOptions
	workers  []*shardWorker
	memBytes int

	next    atomic.Uint64 // round-robin router
	pending atomic.Int64  // updates routed since construction
	closed  atomic.Bool

	syncMu sync.Mutex // single-flight snapshot/merge
	// viewSteps is the routed-update count the installed view reflects
	// at least: pending as loaded before the view's snapshots were asked
	// for.
	viewSteps int64 // guarded by syncMu
	viewMu    sync.RWMutex
	view      *Mixed
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// ShardedOptions configures the parallel learner. Every worker trains a
// private AWM-Sketch, the paper's best-performing configuration.
type ShardedOptions struct {
	// Workers is the number of training goroutines. Defaults to
	// runtime.GOMAXPROCS(0).
	Workers int
	// SyncEvery refreshes the merged query snapshot after this many routed
	// updates. 0 selects the default (65536); negative disables automatic
	// refresh (snapshots then only rebuild on explicit Sync/Close).
	SyncEvery int
}

// shardQueueSize is each worker's input buffer in messages: deep enough that
// a producer rarely waits on a busy worker, bounded so a worker that falls
// behind pushes back on producers instead of queueing without limit.
const shardQueueSize = 256

func (o *ShardedOptions) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 65536
	}
}

// shardMsg is one unit of work for a worker: a batch of examples, (when
// snap is non-nil) a request to report the worker's current state, or (when
// freeze is non-nil) a request to pause in place. Control requests ride the
// same FIFO channel as examples, so they reflect every example routed to
// that worker before the request.
type shardMsg struct {
	batch  []stream.Example
	snap   chan<- Snapshot
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

type shardWorker struct {
	in    chan shardMsg
	model *AWMSketch
}

// NewSharded returns a parallel learner over cfg with opt.Workers training
// goroutines already running. Callers must Close it to stop the workers and
// fold the final state into the query snapshot.
func NewSharded(cfg Config, opt ShardedOptions) *Sharded {
	return NewGeometry(cfg).NewSharded(opt)
}

// NewSharded returns a parallel learner of g's configuration whose shards
// and views share g's hash family.
func (g *Geometry) NewSharded(opt ShardedOptions) *Sharded {
	opt.fill()
	models := make([]*AWMSketch, opt.Workers)
	for i := range models {
		models[i] = g.NewAWMSketch()
	}
	// The empty model is the view of fresh shards, well defined before the
	// first sync.
	return g.startSharded(opt, models, 0, EmptyMixed(g.Mix()))
}

// startSharded assembles a sharded learner around models, built on g —
// freshly by NewSharded, or deserialized by LoadSharded — and starts its
// workers. It serves view, which must be the mix of the models, until the
// first Sync; pending is the routed-update count they hold. opt must be
// final.
func (g *Geometry) startSharded(opt ShardedOptions, models []*AWMSketch, pending int64, view *Mixed) *Sharded {
	s := &Sharded{geo: g, opt: opt, workers: make([]*shardWorker, len(models)), viewSteps: pending, view: view}
	s.pending.Store(pending)
	for i, m := range models {
		s.workers[i] = &shardWorker{in: make(chan shardMsg, shardQueueSize), model: m}
		s.memBytes += m.MemoryBytes()
	}
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
		default:
			for _, ex := range msg.batch {
				w.model.Update(ex.X, ex.Y)
			}
		}
	}
}

// snapshot returns the worker's model in the form cluster nodes send it:
// a copy of the tail sketch, the decay scale and the raw active set. It
// cannot fail.
func (w *shardWorker) snapshot() Snapshot {
	sn, _ := w.model.ModelSnapshot()
	return sn
}

// Update routes example (x, y) to a worker as a one-example batch. It
// blocks only when the worker's queue is full, and briefly when it is the
// update that triggers a periodic snapshot refresh. High-throughput
// producers should prefer UpdateBatch: a channel synchronization per
// example costs more than a depth-1 sketch update itself.
func (s *Sharded) Update(x stream.Vector, y int) {
	s.UpdateBatch([]stream.Example{{X: x, Y: y}})
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

// Sync rebuilds the merged query snapshot from the current worker states
// and reports whether it merged. It blocks until every example routed
// before the call has been applied (the snapshot request travels the same
// FIFO queues as the examples). Concurrent Syncs coalesce behind a
// single-flight lock.
//
// When no update was routed since the installed view was built, that view
// already reflects every update routed before the call, and Sync keeps it
// without a merge, as Close does.
func (s *Sharded) Sync() bool {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	// Every update counted here was routed before the snapshot requests
	// below, so the view reflects it.
	steps := s.pending.Load()
	if s.closed.Load() || steps == s.viewSteps {
		return false // Close installed the final view, or the view is current
	}
	replies := make([]chan Snapshot, len(s.workers))
	for i, w := range s.workers {
		ch := make(chan Snapshot, 1)
		replies[i] = ch
		w.in <- shardMsg{snap: ch}
	}
	snaps := make([]Snapshot, len(replies))
	for i, ch := range replies {
		snaps[i] = <-ch
	}
	s.installLocked(s.geo.mixShards(snaps), steps)
	return true
}

// Close stops the workers, waits for queued examples to drain, and installs
// the final merged snapshot. Queries remain valid after Close; Update
// panics. Close is idempotent and must not race with Update.
//
// When no update was routed since the installed view was built, the shards
// hold what they held then, and the final merge would rebuild that view
// bit for bit; Close keeps it instead, so retiring a fresh or idle learner
// costs no merge.
func (s *Sharded) Close() {
	s.closeOnce.Do(func() {
		s.syncMu.Lock()
		defer s.syncMu.Unlock()
		s.closed.Store(true)
		for _, w := range s.workers {
			close(w.in)
		}
		s.wg.Wait()
		steps := s.pending.Load()
		if steps == s.viewSteps {
			return
		}
		// Workers have exited; wg.Wait is the happens-before barrier that
		// makes their private state safe to mix without a copy.
		models := make([]*AWMSketch, len(s.workers))
		for i, w := range s.workers {
			models[i] = w.model
		}
		s.installLocked(s.geo.mixModels(models), steps)
	})
}

// installLocked serves v, a view reflecting at least steps routed updates.
// Caller holds syncMu.
func (s *Sharded) installLocked(v *Mixed, steps int64) {
	s.viewSteps = steps
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

// mixShards merges the workers' snapshots, in worker order, through
// core.MixSnapshots — the same example-count-weighted parameter mixing the
// cluster layer applies to the snapshots nodes send — which also gives
// every heavy-key candidate a mixed "exact" weight that Estimate and TopK
// prefer over the (collision-noisier) merged-sketch query. The snapshots'
// heavy lists are the caller's, and are sorted by index in place, the
// order MixSnapshots merges them in.
func (g *Geometry) mixShards(snaps []Snapshot) *Mixed {
	for i := range snaps {
		// Zero-padded so the canonical Origin order equals worker order.
		snaps[i].Origin = fmt.Sprintf("%06d", i)
		stream.SortByIndex(snaps[i].Heavy)
	}
	v, err := MixSnapshots(snaps, g.Mix())
	if err != nil {
		// Same shape and seed by construction; mixing cannot fail.
		panic("core: shard merge: " + err.Error())
	}
	return v
}

// mixModels mixes the view of models that no worker is training from
// their own sketches, which MixSnapshots only reads. The view equals
// mixShards over the models' ModelSnapshots.
func (g *Geometry) mixModels(models []*AWMSketch) *Mixed {
	snaps := make([]Snapshot, len(models))
	for i, m := range models {
		snaps[i] = m.snapshot(m.cs)
	}
	return g.mixShards(snaps)
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

// QueuedMessages returns the number of messages waiting in the workers'
// queues: update batches and control requests routed but not yet taken
// up. It reads the channels' lengths, so the update path pays nothing for
// it.
func (s *Sharded) QueuedMessages() int {
	n := 0
	for _, w := range s.workers {
		n += len(w.in)
	}
	return n
}

// MemoryBytes reports the aggregate cost-model footprint of the training
// state: P private shards. The merged query snapshot is transient and not
// charged.
func (s *Sharded) MemoryBytes() int { return s.memBytes }

var _ stream.Learner = (*Sharded)(nil)
