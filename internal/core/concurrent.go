package core

import (
	"io"
	"sync"

	"wmsketch/internal/stream"
)

// Concurrent wraps one AWM-Sketch with a reader/writer lock so that one
// writer (the update path) and many readers (Estimate/TopK/Predict queries)
// can share it safely across goroutines. Queries always see every update
// that returned before them. It offers the same serving surface as Sharded
// — UpdateBatch, Sync, Close, checkpointing and snapshots — so a server can
// hold either behind one interface; Sync and Close are no-ops here because
// there is no merged snapshot to refresh and no worker to stop.
type Concurrent struct {
	mu sync.RWMutex
	m  *AWMSketch // guarded by mu
}

// NewConcurrent wraps m.
func NewConcurrent(m *AWMSketch) *Concurrent {
	if m == nil {
		panic("core: nil learner")
	}
	return &Concurrent{m: m}
}

// Update applies one gradient step under the write lock.
func (c *Concurrent) Update(x stream.Vector, y int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.Update(x, y)
}

// UpdateBatch applies the batch in order under one write lock, so the
// result equals len(batch) sequential Update calls.
func (c *Concurrent) UpdateBatch(batch []stream.Example) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ex := range batch {
		c.m.Update(ex.X, ex.Y)
	}
}

// Predict evaluates the margin under the read lock.
func (c *Concurrent) Predict(x stream.Vector) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.Predict(x)
}

// Estimate queries one weight under the read lock.
func (c *Concurrent) Estimate(i uint32) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.Estimate(i)
}

// TopK retrieves the heaviest weights under the read lock.
func (c *Concurrent) TopK(k int) []stream.Weighted {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.TopK(k)
}

// WriteTo checkpoints the wrapped model under the read lock (writers are
// excluded, concurrent queries are not), in the model's own format.
func (c *Concurrent) WriteTo(w io.Writer) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.WriteTo(w)
}

// ModelSnapshot snapshots the wrapped model under the read lock.
func (c *Concurrent) ModelSnapshot() (Snapshot, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.ModelSnapshot()
}

// Steps reports the wrapped model's update count.
func (c *Concurrent) Steps() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.Steps()
}

// Workers returns 0: updates run on the caller's goroutine, not on a pool.
func (c *Concurrent) Workers() int { return 0 }

// QueuedMessages returns 0: there are no queues.
func (c *Concurrent) QueuedMessages() int { return 0 }

// MemoryBytes reports the wrapped model's footprint.
func (c *Concurrent) MemoryBytes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m.MemoryBytes()
}

// Sync is a no-op that merges nothing: queries read the model itself, so
// they are always current.
func (c *Concurrent) Sync() bool { return false }

// Close is a no-op: there is no background goroutine to stop.
func (c *Concurrent) Close() {}

var _ stream.Learner = (*Concurrent)(nil)
