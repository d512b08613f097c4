package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"wmsketch/internal/frame"
	"wmsketch/internal/linear"
	"wmsketch/internal/sketch"
	"wmsketch/internal/topk"
)

// Serialization lets a trained classifier be checkpointed and resumed — a
// practical necessity for long-running streams. The format captures the
// sketch buckets, the heap contents, the global scale, and the step
// counter. Loss and Schedule are behaviour, not state; the loader takes
// them from the caller (nil selects the defaults used throughout the
// paper) so custom losses round-trip without a registry.
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
	magicWM      = 0x574d5357 // "WMSW"
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

// WriteTo serializes the WM-Sketch state. It implements io.WriterTo.
func (w *WMSketch) WriteTo(out io.Writer) (int64, error) {
	return writeSketchState(out, magicWM, &w.cfg, w.scale, w.t, w.heap, w.cs)
}

// LoadWMSketch restores a WM-Sketch written by WriteTo. loss and schedule
// replace the serialized behaviour; nil selects the defaults. r must end
// where the checkpoint does.
func LoadWMSketch(r io.Reader, loss linear.Loss, schedule linear.Schedule) (*WMSketch, error) {
	w, err := loadWMSketch(r, loss, schedule)
	if err == nil {
		err = atEnd(r)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

func loadWMSketch(r io.Reader, loss linear.Loss, schedule linear.Schedule) (*WMSketch, error) {
	st, err := readSketchState(r, magicWM, nil, loss, schedule)
	if err != nil {
		return nil, err
	}
	w := newWMSketch(st.cfg, st.cs)
	w.scale, w.t = st.scale, st.t
	if err := st.fillHeap(w.heap); err != nil {
		return nil, err
	}
	return w, nil
}

// WriteTo serializes the AWM-Sketch state. It implements io.WriterTo.
func (a *AWMSketch) WriteTo(out io.Writer) (int64, error) {
	return writeSketchState(out, magicAWM, &a.cfg, a.scale, a.t, a.active, a.cs)
}

// LoadAWMSketch restores an AWM-Sketch written by WriteTo. r must end
// where the checkpoint does.
func LoadAWMSketch(r io.Reader, loss linear.Loss, schedule linear.Schedule) (*AWMSketch, error) {
	return loadAWMCheckpoint(r, nil, loss, schedule)
}

// LoadAWMSketch restores an AWM-Sketch written by WriteTo on g: a
// checkpoint whose header differs from g's configuration in width, depth,
// seed, heap size or λ is refused before anything is allocated from it.
// The model trains with g's loss and schedule, and its sketch shares g's
// hash family. r must end where the checkpoint does.
func (g *Geometry) LoadAWMSketch(r io.Reader) (*AWMSketch, error) {
	return loadAWMCheckpoint(r, g, g.cfg.Loss, g.cfg.Schedule)
}

// loadAWMCheckpoint reads a whole AWM-Sketch checkpoint, which r must end
// with.
func loadAWMCheckpoint(r io.Reader, want *Geometry, loss linear.Loss, schedule linear.Schedule) (*AWMSketch, error) {
	a, err := loadAWMSketch(r, want, loss, schedule)
	if err == nil {
		err = atEnd(r)
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// loadAWMSketch reads one AWM-Sketch, of want's geometry when want is not
// nil, and wraps the sketch it read.
func loadAWMSketch(r io.Reader, want *Geometry, loss linear.Loss, schedule linear.Schedule) (*AWMSketch, error) {
	st, err := readSketchState(r, magicAWM, want, loss, schedule)
	if err != nil {
		return nil, err
	}
	a := newAWMSketch(st.cfg, st.cs)
	a.scale, a.t = st.scale, st.t
	if err := st.fillHeap(a.active); err != nil {
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
	return loadSharded(r, nil, loss, schedule, opt)
}

// LoadSharded restores a parallel learner checkpointed by Sharded.WriteTo
// on g, as the package-level LoadSharded does, except that every shard's
// header must equal g's configuration in width, depth, seed, heap size and
// λ, checked before anything is allocated from it; the shards train with
// g's loss and schedule, and they and every view share g's hash family.
func (g *Geometry) LoadSharded(r io.Reader, opt ShardedOptions) (*Sharded, error) {
	return loadSharded(r, g, g.cfg.Loss, g.cfg.Schedule, opt)
}

// loadSharded reads a sharded checkpoint, of want's geometry when want is
// not nil and otherwise of the first shard's.
func loadSharded(r io.Reader, want *Geometry, loss linear.Loss, schedule linear.Schedule, opt ShardedOptions) (*Sharded, error) {
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
		m, err := loadAWMSketch(r, want, loss, schedule)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		if want == nil {
			// Later shards are read on the first one's geometry.
			want = &Geometry{cfg: m.cfg, sk: m.cs.Geometry()}
		}
		models[i] = m
	}
	if err := atEnd(r); err != nil {
		return nil, err
	}
	opt.Workers = int(workers)
	opt.fill()
	// The workers have not started, so the first view is mixed from the
	// models directly.
	snaps := make([]Snapshot, workers)
	for i, m := range models {
		snaps[i], _ = m.ModelSnapshot()
	}
	return want.startSharded(opt, models, pending, want.mixShards(snaps)), nil
}

// maxShardedWorkers bounds the worker count accepted from a checkpoint so a
// corrupt header cannot demand millions of goroutines and sketches.
const maxShardedWorkers = 4096

// maxSerializedHeap bounds the heap capacity accepted from a checkpoint:
// without it a corrupt 4-byte heapSize/heapLen pair could demand a ~100 GiB
// entries allocation (plus a 4× index table in topk.New) before a single
// heap byte is read. 2^24 slots is far above any configuration the paper
// uses, far below an OOM.
const maxSerializedHeap = 1 << 24

func writeSketchState(out io.Writer, magic uint32, cfg *Config, scale float64,
	t int64, heap *topk.Heap, cs *sketch.CountSketch) (int64, error) {
	entries := heap.Entries()
	b := make([]byte, 0, stateHeaderSize+heapEntrySize*len(entries))
	for _, v := range []uint32{magic, serializeVersion, uint32(cfg.Width), uint32(cfg.Depth), uint32(cfg.HeapSize)} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	for _, v := range []uint64{math.Float64bits(cfg.Lambda), uint64(cfg.Seed), math.Float64bits(scale), uint64(t)} {
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
	m, err := cs.WriteTo(out)
	return int64(n) + m, err
}

const serializeVersion = 1

// sketchState is what a WM- and an AWM-Sketch checkpoint hold beyond the
// behaviour the caller supplies.
type sketchState struct {
	cfg   Config
	scale float64
	t     int64
	heap  []byte // heapLen entries of heapEntrySize bytes
	cs    *sketch.CountSketch
}

// readSketchState reads and validates one model's header, heap section
// and Count-Sketch. Every header field that sizes an allocation or feeds
// arithmetic is validated before use, so a corrupt checkpoint yields a
// clean error rather than an OOM, a Config.fill panic, or NaN-poisoned
// estimates. Given want, a header that disagrees with it is refused before
// the heap section or the buckets are read, the state takes want's
// configuration, and its sketch shares want's hash family.
func readSketchState(r io.Reader, wantMagic uint32, want *Geometry, loss linear.Loss, schedule linear.Schedule) (*sketchState, error) {
	var hdr [stateHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: truncated header: %w", err)
	}
	le := binary.LittleEndian
	if magic := le.Uint32(hdr[0:]); magic != wantMagic {
		return nil, fmt.Errorf("core: bad magic %#x", magic)
	}
	if version := le.Uint32(hdr[4:]); version != serializeVersion {
		return nil, fmt.Errorf("core: unsupported version %d", version)
	}
	width, depth, heapSize := le.Uint32(hdr[8:]), le.Uint32(hdr[12:]), le.Uint32(hdr[16:])
	lambda := math.Float64frombits(le.Uint64(hdr[20:]))
	st := &sketchState{
		scale: math.Float64frombits(le.Uint64(hdr[36:])),
		t:     int64(le.Uint64(hdr[44:])),
	}
	heapLen := le.Uint32(hdr[52:])
	if heapSize == 0 || heapSize > maxSerializedHeap {
		return nil, fmt.Errorf("core: implausible heap capacity %d", heapSize)
	}
	if heapLen > heapSize {
		return nil, fmt.Errorf("core: heap length %d exceeds capacity %d", heapLen, heapSize)
	}
	if !frame.Finite(lambda) || lambda < 0 {
		return nil, fmt.Errorf("core: corrupt lambda %g", lambda)
	}
	if !frame.Finite(st.scale) || st.scale <= 0 {
		return nil, fmt.Errorf("core: corrupt scale %g", st.scale)
	}
	if st.t < 0 {
		return nil, fmt.Errorf("core: negative step counter %d", st.t)
	}
	seed := int64(le.Uint64(hdr[28:]))
	if want != nil {
		if err := want.check(width, depth, heapSize, lambda, seed); err != nil {
			return nil, err
		}
		st.cfg = want.cfg
	} else {
		st.cfg = Config{
			Width: int(width), Depth: int(depth), HeapSize: int(heapSize),
			Lambda: lambda, Seed: seed, Loss: loss, Schedule: schedule,
		}
		if err := st.cfg.validate(); err != nil {
			return nil, err
		}
		st.cfg.fill()
	}
	var err error
	if st.heap, err = frame.ReadN(r, nil, heapEntrySize*int(heapLen)); err != nil {
		return nil, fmt.Errorf("core: heap: %w", err)
	}
	if want != nil {
		st.cs, err = want.sk.Read(r)
	} else {
		st.cs, err = sketch.ReadCountSketch(r)
	}
	if err != nil {
		return nil, err
	}
	if st.cs.Width() != int(width) || st.cs.Depth() != int(depth) || st.cs.Seed() != seed {
		return nil, fmt.Errorf("core: sketch %dx%d seed %d disagrees with header %dx%d seed %d",
			st.cs.Depth(), st.cs.Width(), st.cs.Seed(), depth, width, seed)
	}
	return st, nil
}

// fillHeap inserts the checkpoint's heap entries into h, a fresh heap of
// the checkpoint's capacity. WriteTo writes a heap in its array order, in
// which no entry outweighs its parent (i−1)/2 in magnitude, so inserting
// in file order moves nothing and a restore serializes back to the same
// bytes. A non-finite weight, a repeated key, or an entry out of heap
// order marks a corrupt checkpoint.
func (st *sketchState) fillHeap(h *topk.Heap) error {
	weight := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(st.heap[i*heapEntrySize+4:]))
	}
	for i := 0; i < len(st.heap)/heapEntrySize; i++ {
		key, w := binary.LittleEndian.Uint32(st.heap[i*heapEntrySize:]), weight(i)
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
