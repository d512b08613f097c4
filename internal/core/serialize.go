package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"wmsketch/internal/frame"
	"wmsketch/internal/linear"
	"wmsketch/internal/topk"
)

// Serialization lets a trained AWM-Sketch be checkpointed and resumed — a
// practical necessity for long-running streams. The format captures the
// sketch buckets, the heap contents, the global scale, and the step
// counter. Loss and Schedule are behaviour, not state; the loader takes
// them from the caller (nil selects the defaults used throughout the
// paper) so custom losses round-trip without a registry. A sharded
// checkpoint is a header followed by one such model per worker.
//
// Layout (little-endian), after a 4-byte magic + 4-byte version:
//
//	width, depth, heapSize uint32
//	lambda float64, seed int64, scale float64, t int64
//	heapLen uint32, then heapLen × (key uint32, weight float64)
//	the backing Count-Sketch in its own format
//
// Restore follows internal/frame's decode rules. The header and the heap
// are fixed-layout sections read whole and validated before use; each
// section consumes exactly its own bytes, so a model can be read from the
// middle of a sharded checkpoint, and the public loaders require the input
// to end where the checkpoint does.
const (
	magicAWM     = 0x574d5341 // "WMSA"
	magicSharded = 0x574d5353 // "WMSS"

	// stateHeaderSize is a model's header through heapLen;
	// heapEntrySize one (key, weight) heap entry.
	stateHeaderSize = 4 + 4 + 3*4 + 4*8 + 4
	heapEntrySize   = 4 + 8
	// shardedHeaderSize is magic, version, variant, workers, routed count.
	shardedHeaderSize = 4*4 + 8
)

// errShardVariant rejects a sharded checkpoint whose variant field is not
// 0. Variant 1 held basic WM-Sketch shards, which Sharded no longer trains.
var errShardVariant = errors.New("core: sharded checkpoint does not hold AWM shards (variant 0)")

// WriteTo serializes the AWM-Sketch state. It implements io.WriterTo.
func (a *AWMSketch) WriteTo(out io.Writer) (int64, error) {
	entries := a.active.Entries()
	b := make([]byte, 0, stateHeaderSize+heapEntrySize*len(entries))
	for _, v := range []uint32{magicAWM, serializeVersion, uint32(a.cfg.Width), uint32(a.cfg.Depth), uint32(a.cfg.HeapSize)} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	for _, v := range []uint64{math.Float64bits(a.cfg.Lambda), uint64(a.cfg.Seed), math.Float64bits(a.scale), uint64(a.t)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = binary.LittleEndian.AppendUint32(b, e.Key)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Weight))
	}
	n, err := out.Write(b)
	if err != nil {
		return int64(n), err
	}
	m, err := a.cs.WriteTo(out)
	return int64(n) + m, err
}

// LoadAWMSketch restores an AWM-Sketch written by WriteTo, of the
// geometry and λ its header declares. loss and schedule replace the
// serialized behaviour; nil selects the defaults. r must end where the
// checkpoint does.
func LoadAWMSketch(r io.Reader, loss linear.Loss, schedule linear.Schedule) (*AWMSketch, error) {
	return loadAWMCheckpoint(r, declared(loss, schedule))
}

// LoadAWMSketch restores an AWM-Sketch written by WriteTo on g: a
// checkpoint whose header differs from g's configuration in width, depth,
// seed, heap size or λ is refused before anything is allocated from it.
// The model trains with g's loss and schedule, and its sketch shares g's
// hash family. r must end where the checkpoint does.
func (g *Geometry) LoadAWMSketch(r io.Reader) (*AWMSketch, error) {
	return loadAWMCheckpoint(r, g)
}

// declared is the geometry a plain loader reads on: an empty one, which
// the first model header read declares (loadAWMSketch), training with loss
// and schedule.
func declared(loss linear.Loss, schedule linear.Schedule) *Geometry {
	return &Geometry{cfg: Config{Loss: loss, Schedule: schedule}}
}

// loadAWMCheckpoint reads a whole AWM-Sketch checkpoint, which r must end
// with.
func loadAWMCheckpoint(r io.Reader, want *Geometry) (*AWMSketch, error) {
	a, err := loadAWMSketch(r, want)
	if err == nil {
		err = atEnd(r)
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// loadAWMSketch reads one AWM-Sketch on want. Every header field that
// sizes an allocation or feeds arithmetic is validated before use, so a
// corrupt checkpoint yields a clean error rather than an OOM, a
// Config.fill panic, or NaN-poisoned estimates. An empty want (declared)
// takes this header's configuration, if Config.validate accepts it, and
// builds its hash family once the buckets have arrived; a header that
// disagrees with want is refused before the heap section or the buckets
// are read. The model takes want's configuration, and its sketch shares
// want's hash family.
func loadAWMSketch(r io.Reader, want *Geometry) (*AWMSketch, error) {
	var hdr [stateHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: truncated header: %w", err)
	}
	le := binary.LittleEndian
	if magic := le.Uint32(hdr[0:]); magic != magicAWM {
		return nil, fmt.Errorf("core: bad magic %#x", magic)
	}
	if version := le.Uint32(hdr[4:]); version != serializeVersion {
		return nil, fmt.Errorf("core: unsupported version %d", version)
	}
	width, depth, heapSize := le.Uint32(hdr[8:]), le.Uint32(hdr[12:]), le.Uint32(hdr[16:])
	lambda, seed := math.Float64frombits(le.Uint64(hdr[20:])), int64(le.Uint64(hdr[28:]))
	scale, t := math.Float64frombits(le.Uint64(hdr[36:])), int64(le.Uint64(hdr[44:]))
	heapLen := le.Uint32(hdr[52:])
	switch {
	case heapLen > heapSize:
		return nil, fmt.Errorf("core: heap length %d exceeds capacity %d", heapLen, heapSize)
	case !frame.Finite(lambda) || lambda < 0:
		return nil, fmt.Errorf("core: corrupt lambda %g", lambda)
	case !frame.Finite(scale) || scale <= 0:
		return nil, fmt.Errorf("core: corrupt scale %g", scale)
	case t < 0:
		return nil, fmt.Errorf("core: negative step counter %d", t)
	}
	if want.sk == nil {
		cfg := Config{Width: int(width), Depth: int(depth), HeapSize: int(heapSize),
			Lambda: lambda, Seed: seed, Loss: want.cfg.Loss, Schedule: want.cfg.Schedule}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		*want = *NewGeometry(cfg)
	}
	if err := want.check(width, depth, heapSize, lambda, seed); err != nil {
		return nil, err
	}
	heap, err := frame.ReadN(r, nil, heapEntrySize*int(heapLen))
	if err != nil {
		return nil, fmt.Errorf("core: heap: %w", err)
	}
	cs, err := want.sk.Read(r)
	if err != nil {
		return nil, err
	}
	a := newAWMSketch(want.cfg, cs)
	a.scale, a.t = scale, t
	if err := fillHeap(a.active, heap); err != nil {
		return nil, err
	}
	return a, nil
}

// atEnd applies the exact-consumption rule to a whole checkpoint.
func atEnd(r io.Reader) error {
	if err := frame.AtEOF(r); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// WriteTo checkpoints the parallel learner: a header (magic, version,
// variant, worker count, routed-update counter) followed by each worker's
// model in its own serialization. The workers are quiesced in place for the
// duration of the write via a freeze handshake on the same FIFO queues that
// carry examples, so the checkpoint reflects every example routed before
// the call and training resumes as soon as the write ends — no teardown, no
// merge.
//
// WriteTo may run concurrently with Update; updates queue behind the freeze
// and are applied after it releases.
func (s *Sharded) WriteTo(out io.Writer) (int64, error) {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if !s.closed.Load() {
		ready := make(chan struct{})
		release := make(chan struct{})
		for _, w := range s.workers {
			w.in <- shardMsg{freeze: &shardFreeze{ready: ready, release: release}}
		}
		for range s.workers {
			<-ready
		}
		defer close(release)
	}
	// Workers are parked (or exited, after Close); their models are safe to
	// read directly.
	var hdr [shardedHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicSharded)
	binary.LittleEndian.PutUint32(hdr[4:], serializeVersion)
	// hdr[8:12], the variant, stays 0 (AWM shards).
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(s.workers)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(s.pending.Load()))
	m, err := out.Write(hdr[:])
	n := int64(m)
	if err != nil {
		return n, err
	}
	for _, w := range s.workers {
		m, err := w.model.WriteTo(out)
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// LoadSharded restores a parallel learner checkpointed by Sharded.WriteTo.
// loss and schedule replace the serialized behaviour (nil selects the
// defaults); opt configures the sync cadence, but the worker count comes
// from the checkpoint — per-shard state cannot be re-partitioned. The
// restored learner is live (workers running) with its query snapshot
// already rebuilt. Its shards and views share the hash family of the first
// shard, whose header every later shard must repeat.
func LoadSharded(r io.Reader, loss linear.Loss, schedule linear.Schedule, opt ShardedOptions) (*Sharded, error) {
	return loadSharded(r, declared(loss, schedule), opt)
}

// LoadSharded restores a parallel learner checkpointed by Sharded.WriteTo
// on g, as the package-level LoadSharded does, except that every shard's
// header must equal g's configuration in width, depth, seed, heap size and
// λ, checked before anything is allocated from it; the shards train with
// g's loss and schedule, and they and every view share g's hash family.
func (g *Geometry) LoadSharded(r io.Reader, opt ShardedOptions) (*Sharded, error) {
	return loadSharded(r, g, opt)
}

// loadSharded reads a sharded checkpoint on want, which an empty want
// takes from the first shard's header.
func loadSharded(r io.Reader, want *Geometry, opt ShardedOptions) (*Sharded, error) {
	var hdr [shardedHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: truncated sharded header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	version := binary.LittleEndian.Uint32(hdr[4:])
	variant := binary.LittleEndian.Uint32(hdr[8:])
	workers := binary.LittleEndian.Uint32(hdr[12:])
	pending := int64(binary.LittleEndian.Uint64(hdr[16:]))
	if magic != magicSharded {
		return nil, fmt.Errorf("core: bad sharded magic %#x", magic)
	}
	if version != serializeVersion {
		return nil, fmt.Errorf("core: unsupported sharded version %d", version)
	}
	if workers == 0 || workers > maxShardedWorkers {
		return nil, fmt.Errorf("core: implausible worker count %d", workers)
	}
	if variant != 0 {
		return nil, fmt.Errorf("%w: got %d", errShardVariant, variant)
	}
	if pending < 0 {
		return nil, fmt.Errorf("core: negative update counter %d", pending)
	}
	models := make([]*AWMSketch, workers)
	for i := range models {
		m, err := loadAWMSketch(r, want)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		models[i] = m
	}
	if err := atEnd(r); err != nil {
		return nil, err
	}
	opt.Workers = int(workers)
	opt.fill()
	// The workers have not started, so the first view is mixed from the
	// models' own sketches.
	return want.startSharded(opt, models, pending, want.mixModels(models)), nil
}

// maxShardedWorkers bounds the worker count accepted from a checkpoint so a
// corrupt header cannot demand millions of goroutines and sketches.
const maxShardedWorkers = 4096

const serializeVersion = 1

// fillHeap inserts a checkpoint's heap section into h, a fresh heap of
// the checkpoint's capacity. WriteTo writes a heap in its array order, in
// which no entry outweighs its parent (i−1)/2 in magnitude, so inserting
// in file order moves nothing and a restore serializes back to the same
// bytes. A non-finite weight, a repeated key, or an entry out of heap
// order marks a corrupt checkpoint.
func fillHeap(h *topk.Heap, heap []byte) error {
	weight := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(heap[i*heapEntrySize+4:]))
	}
	for i := 0; i < len(heap)/heapEntrySize; i++ {
		key, w := binary.LittleEndian.Uint32(heap[i*heapEntrySize:]), weight(i)
		switch {
		case !frame.Finite(w):
			return fmt.Errorf("core: heap entry %d has non-finite weight", i)
		case h.Contains(key):
			return fmt.Errorf("core: heap key %d appears twice", key)
		case i > 0 && absf(w) < absf(weight((i-1)/2)):
			return fmt.Errorf("core: heap entry %d is out of heap order", i)
		}
		h.InsertMagnitude(key, w)
	}
	return nil
}
