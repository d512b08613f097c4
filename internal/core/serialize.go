package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

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
const (
	magicWM      = 0x574d5357 // "WMSW"
	magicAWM     = 0x574d5341 // "WMSA"
	magicSharded = 0x574d5353 // "WMSS"
)

// WriteTo serializes the WM-Sketch state. It implements io.WriterTo.
func (w *WMSketch) WriteTo(out io.Writer) (int64, error) {
	return writeSketchState(out, magicWM, &w.cfg, w.scale, w.t, w.heap, w.cs)
}

// LoadWMSketch restores a WM-Sketch written by WriteTo. loss and schedule
// replace the serialized behaviour; nil selects the defaults.
func LoadWMSketch(r io.Reader, loss linear.Loss, schedule linear.Schedule) (*WMSketch, error) {
	cfg, scale, t, entries, cs, err := readSketchState(r, magicWM)
	if err != nil {
		return nil, err
	}
	cfg.Loss = loss
	cfg.Schedule = schedule
	w := NewWMSketch(cfg)
	w.cs = cs
	w.scale = scale
	w.t = t
	for _, e := range entries {
		w.heap.Insert(e.Key, e.Weight, e.Score)
	}
	return w, nil
}

// WriteTo serializes the AWM-Sketch state. It implements io.WriterTo.
func (a *AWMSketch) WriteTo(out io.Writer) (int64, error) {
	return writeSketchState(out, magicAWM, &a.cfg, a.scale, a.t, a.active, a.cs)
}

// LoadAWMSketch restores an AWM-Sketch written by WriteTo.
func LoadAWMSketch(r io.Reader, loss linear.Loss, schedule linear.Schedule) (*AWMSketch, error) {
	cfg, scale, t, entries, cs, err := readSketchState(r, magicAWM)
	if err != nil {
		return nil, err
	}
	cfg.Loss = loss
	cfg.Schedule = schedule
	a := NewAWMSketch(cfg)
	a.cs = cs
	a.scale = scale
	a.t = t
	for _, e := range entries {
		a.active.Insert(e.Key, e.Weight, e.Score)
	}
	return a, nil
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
	bw := bufio.NewWriter(out)
	var n int64
	variant := uint32(s.opt.Variant)
	fields := []interface{}{
		uint32(magicSharded), uint32(serializeVersion),
		variant, uint32(len(s.workers)), s.pending.Load(),
	}
	for _, f := range fields {
		if err := binary.Write(bw, binary.LittleEndian, f); err != nil {
			return n, err
		}
		n += int64(binary.Size(f))
	}
	if err := bw.Flush(); err != nil {
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
// defaults); opt configures queue sizes and sync cadence, but the worker
// count and shard variant come from the checkpoint — per-shard state cannot
// be re-partitioned. The restored learner is live (workers running) with its
// query snapshot already rebuilt.
func LoadSharded(r io.Reader, loss linear.Loss, schedule linear.Schedule, opt ShardedOptions) (*Sharded, error) {
	br := bufio.NewReader(r)
	var magic, version, variant, workers uint32
	var pending int64
	for _, p := range []interface{}{&magic, &version, &variant, &workers, &pending} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("core: truncated sharded header: %w", err)
		}
	}
	if magic != magicSharded {
		return nil, fmt.Errorf("core: bad sharded magic %#x", magic)
	}
	if version != serializeVersion {
		return nil, fmt.Errorf("core: unsupported sharded version %d", version)
	}
	if workers == 0 || workers > maxShardedWorkers {
		return nil, fmt.Errorf("core: implausible worker count %d", workers)
	}
	if variant != uint32(ShardAWM) && variant != uint32(ShardWM) {
		return nil, fmt.Errorf("core: unknown shard variant %d", variant)
	}
	if pending < 0 {
		return nil, fmt.Errorf("core: negative update counter %d", pending)
	}
	models := make([]sketchModel, workers)
	var cfg Config
	for i := range models {
		var (
			m   sketchModel
			c   Config
			err error
		)
		if ShardVariant(variant) == ShardWM {
			var w *WMSketch
			w, err = LoadWMSketch(br, loss, schedule)
			if w != nil {
				m, c = w, w.cfg
			}
		} else {
			var a *AWMSketch
			a, err = LoadAWMSketch(br, loss, schedule)
			if a != nil {
				m, c = a, a.cfg
			}
		}
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
		if i == 0 {
			cfg = c
		} else if c.Width != cfg.Width || c.Depth != cfg.Depth || c.Seed != cfg.Seed {
			return nil, fmt.Errorf("core: shard %d shape/seed disagrees with shard 0", i)
		}
		models[i] = m
	}
	opt.Workers = int(workers)
	opt.Variant = ShardVariant(variant)
	opt.fill()
	s := newShardedFromModels(cfg, opt, models)
	s.pending.Store(pending)
	s.Sync()
	return s, nil
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
	bw := bufio.NewWriter(out)
	var n int64
	entries := heap.Entries()
	fields := []interface{}{
		magic, uint32(serializeVersion),
		uint32(cfg.Width), uint32(cfg.Depth), uint32(cfg.HeapSize),
		cfg.Lambda, cfg.Seed, scale, t,
		uint32(len(entries)),
	}
	for _, f := range fields {
		if err := binary.Write(bw, binary.LittleEndian, f); err != nil {
			return n, err
		}
		n += int64(binary.Size(f))
	}
	for _, e := range entries {
		for _, f := range []interface{}{e.Key, e.Weight} {
			if err := binary.Write(bw, binary.LittleEndian, f); err != nil {
				return n, err
			}
			n += int64(binary.Size(f))
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	m, err := cs.WriteTo(out)
	return n + m, err
}

const serializeVersion = 1

func readSketchState(r io.Reader, wantMagic uint32) (cfg Config, scale float64,
	t int64, entries []topk.Entry, cs *sketch.CountSketch, err error) {
	br := bufio.NewReader(r)
	var magic, version, width, depth, heapSize, heapLen uint32
	var lambda float64
	var seed int64
	for _, p := range []interface{}{&magic, &version, &width, &depth, &heapSize,
		&lambda, &seed, &scale, &t, &heapLen} {
		if err = binary.Read(br, binary.LittleEndian, p); err != nil {
			err = fmt.Errorf("core: truncated header: %w", err)
			return
		}
	}
	if magic != wantMagic {
		err = fmt.Errorf("core: bad magic %#x", magic)
		return
	}
	if version != serializeVersion {
		err = fmt.Errorf("core: unsupported version %d", version)
		return
	}
	// Defensive restore, mirroring the sketch layer: every header field that
	// sizes an allocation or feeds arithmetic is validated before use, so a
	// corrupt checkpoint yields a clean error rather than an OOM, a panic in
	// Config.fill, or NaN-poisoned estimates.
	if heapSize == 0 || heapSize > maxSerializedHeap {
		err = fmt.Errorf("core: implausible heap capacity %d", heapSize)
		return
	}
	if heapLen > heapSize {
		err = fmt.Errorf("core: heap length %d exceeds capacity %d", heapLen, heapSize)
		return
	}
	if isBad(lambda) || lambda < 0 {
		err = fmt.Errorf("core: corrupt lambda %g", lambda)
		return
	}
	if isBad(scale) || scale <= 0 {
		err = fmt.Errorf("core: corrupt scale %g", scale)
		return
	}
	if t < 0 {
		err = fmt.Errorf("core: negative step counter %d", t)
		return
	}
	entries = make([]topk.Entry, heapLen)
	for i := range entries {
		var key uint32
		var weight float64
		if err = binary.Read(br, binary.LittleEndian, &key); err != nil {
			err = fmt.Errorf("core: truncated heap: %w", err)
			return
		}
		if err = binary.Read(br, binary.LittleEndian, &weight); err != nil {
			err = fmt.Errorf("core: truncated heap: %w", err)
			return
		}
		if isBad(weight) {
			err = fmt.Errorf("core: heap entry %d has non-finite weight", i)
			return
		}
		score := weight
		if score < 0 {
			score = -score
		}
		entries[i] = topk.Entry{Key: key, Weight: weight, Score: score}
	}
	cs, err = sketch.ReadCountSketch(br)
	if err != nil {
		return
	}
	if cs.Width() != int(width) || cs.Depth() != int(depth) {
		err = fmt.Errorf("core: sketch shape %dx%d disagrees with header %dx%d",
			cs.Depth(), cs.Width(), depth, width)
		return
	}
	cfg = Config{
		Width: int(width), Depth: int(depth), HeapSize: int(heapSize),
		Lambda: lambda, Seed: seed,
	}
	return
}
