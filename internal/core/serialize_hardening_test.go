package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/linear"
)

// Hardening tests for the learner restore path, mirroring the sketch-layer
// ones: a corrupt checkpoint must produce a clean error — not a huge
// allocation, a Config.fill panic, or NaN-poisoned state.
//
// Serialized layout (little-endian): magic(0) version(4) width(8) depth(12)
// heapSize(16) lambda(20,f64) seed(28,i64) scale(36,f64) t(44,i64)
// heapLen(52), then heapLen × (key u32, weight f64) from offset 56.
const (
	hdrOffHeapSize = 16
	hdrOffLambda   = 20
	hdrOffScale    = 36
	hdrOffT        = 44
	hdrOffHeapLen  = 52
	hdrOffEntries  = 56
)

func trainedAWMBlob(t *testing.T) []byte {
	t.Helper()
	a := NewAWMSketch(Config{Width: 64, Depth: 2, HeapSize: 8, Lambda: 1e-4, Seed: 3})
	gen := datagen.RCV1Like(1)
	for _, ex := range gen.Take(200) {
		a.Update(ex.X, ex.Y)
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsImplausibleHeap(t *testing.T) {
	blob := trainedAWMBlob(t)
	// heapSize = heapLen = 0xFFFFFFFF passes the heapLen<=heapSize check but
	// would demand a ~100 GiB entries slice plus a 4x index table; the load
	// must error on the capacity bound before allocating.
	bad := append([]byte(nil), blob...)
	for _, off := range []int{hdrOffHeapSize, hdrOffHeapLen} {
		binary.LittleEndian.PutUint32(bad[off:], math.MaxUint32)
	}
	if _, err := LoadAWMSketch(bytes.NewReader(bad), nil, nil); err == nil {
		t.Error("implausible heap capacity must be rejected")
	}
	// heapSize = 0 would panic Config.fill; it must error instead.
	bad = append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[hdrOffHeapSize:], 0)
	binary.LittleEndian.PutUint32(bad[hdrOffHeapLen:], 0)
	if _, err := LoadAWMSketch(bytes.NewReader(bad), nil, nil); err == nil {
		t.Error("zero heap capacity must be rejected, not panic")
	}
}

func TestLoadRejectsCorruptScalars(t *testing.T) {
	blob := trainedAWMBlob(t)
	nan := math.Float64bits(math.NaN())
	cases := []struct {
		name  string
		patch func(b []byte)
	}{
		{"nan-scale", func(b []byte) { binary.LittleEndian.PutUint64(b[hdrOffScale:], nan) }},
		{"zero-scale", func(b []byte) { binary.LittleEndian.PutUint64(b[hdrOffScale:], 0) }},
		{"negative-scale", func(b []byte) {
			binary.LittleEndian.PutUint64(b[hdrOffScale:], math.Float64bits(-1))
		}},
		{"nan-lambda", func(b []byte) { binary.LittleEndian.PutUint64(b[hdrOffLambda:], nan) }},
		{"negative-lambda", func(b []byte) {
			// Would panic Config.fill("negative lambda") if it got through.
			binary.LittleEndian.PutUint64(b[hdrOffLambda:], math.Float64bits(-0.5))
		}},
		{"negative-steps", func(b []byte) {
			binary.LittleEndian.PutUint64(b[hdrOffT:], uint64(math.MaxUint64)) // -1
		}},
		{"nan-heap-weight", func(b []byte) {
			binary.LittleEndian.PutUint64(b[hdrOffEntries+4:], nan) // entry 0's weight
		}},
	}
	for _, tc := range cases {
		bad := append([]byte(nil), blob...)
		tc.patch(bad)
		if _, err := LoadAWMSketch(bytes.NewReader(bad), nil, nil); err == nil {
			t.Errorf("%s: corrupt checkpoint must be rejected", tc.name)
		}
	}
	// The unpatched blob still loads (the patches above, not the harness,
	// cause the rejections).
	if _, err := LoadAWMSketch(bytes.NewReader(blob), nil, nil); err != nil {
		t.Fatalf("pristine blob failed to load: %v", err)
	}
}

// checkpointLoader is one public checkpoint loader with a trained
// checkpoint of its kind. model is the offset of the first model in the
// checkpoint: a sharded checkpoint starts with its own header.
type checkpointLoader struct {
	name  string
	model int
	blob  []byte
	load  func(r io.Reader, schedule linear.Schedule) error
}

func checkpointLoaders(t *testing.T) []checkpointLoader {
	t.Helper()
	cfg := Config{Width: 64, Depth: 2, HeapSize: 8, Lambda: 1e-4, Seed: 3}
	data := datagen.RCV1Like(1).Take(200)
	awm := NewAWMSketch(cfg)
	for _, ex := range data {
		awm.Update(ex.X, ex.Y)
	}
	sh := NewSharded(cfg, ShardedOptions{Workers: 2, SyncEvery: -1})
	defer sh.Close()
	sh.UpdateBatch(data)
	blob := func(m io.WriterTo) []byte {
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return []checkpointLoader{
		{"awm", 0, blob(awm), func(r io.Reader, s linear.Schedule) error {
			_, err := LoadAWMSketch(r, nil, s)
			return err
		}},
		{"sharded", shardedHeaderSize, blob(sh), func(r io.Reader, s linear.Schedule) error {
			got, err := LoadSharded(r, nil, s, ShardedOptions{})
			if err == nil {
				got.Close()
			}
			return err
		}},
	}
}

// loadErr runs a loader, turning a panic into a test failure.
func loadErr(t *testing.T, l checkpointLoader, blob []byte, s linear.Schedule) (err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s: restore panicked: %v", l.name, p)
			err = fmt.Errorf("panic")
		}
	}()
	return l.load(bytes.NewReader(blob), s)
}

// TestLoadRejectsRepeatedHeapKey: a heap section that repeats a key is a
// corrupt checkpoint, reported as an error rather than a topk panic.
func TestLoadRejectsRepeatedHeapKey(t *testing.T) {
	for _, l := range checkpointLoaders(t) {
		bad := append([]byte(nil), l.blob...)
		first := l.model + hdrOffEntries
		copy(bad[first+heapEntrySize:first+heapEntrySize+4], bad[first:first+4])
		if err := loadErr(t, l, bad, nil); err == nil {
			t.Errorf("%s: a repeated heap key must be rejected", l.name)
		}
		if err := loadErr(t, l, l.blob, nil); err != nil {
			t.Fatalf("%s: pristine checkpoint failed to load: %v", l.name, err)
		}
	}
}

// TestLoadRejectsLambdaBeyondConstantSchedule: a checkpoint λ that a
// caller's constant schedule cannot run with (Eta0·λ ≥ 1) is an error,
// not a Config.fill panic.
func TestLoadRejectsLambdaBeyondConstantSchedule(t *testing.T) {
	for _, l := range checkpointLoaders(t) {
		if err := loadErr(t, l, l.blob, linear.Constant{Eta0: 1e4}); err == nil {
			t.Errorf("%s: Eta0·λ = 1 must be rejected", l.name)
		}
		if err := loadErr(t, l, l.blob, linear.Constant{Eta0: 0.1}); err != nil {
			t.Errorf("%s: Eta0·λ = 1e-5 rejected: %v", l.name, err)
		}
	}
}

// TestLoadRejectsTrailingBytes: the public loaders consume the checkpoint
// exactly and require the input to end there.
func TestLoadRejectsTrailingBytes(t *testing.T) {
	for _, l := range checkpointLoaders(t) {
		bad := append(append([]byte(nil), l.blob...), "trailing garbage"...)
		if err := loadErr(t, l, bad, nil); err == nil {
			t.Errorf("%s: trailing bytes after the checkpoint must be rejected", l.name)
		}
	}
}

// TestLoadersRefuseSketchFlags: no writer sets a flag in a sketch header,
// so every checkpoint loader, plain and on a geometry, refuses a model
// whose embedded sketch header sets one, instead of loading it and
// writing the flag back as 0.
func TestLoadersRefuseSketchFlags(t *testing.T) {
	awmGeo := NewGeometry(Config{Width: 128, Depth: 3, HeapSize: 16, Lambda: 1e-4, Seed: 9})
	shardedGeo := NewGeometry(Config{Width: 128, Depth: 2, HeapSize: 16, Lambda: 1e-5, Seed: 9})
	sharded := func(load func(io.Reader) (*Sharded, error)) func(io.Reader) error {
		return func(r io.Reader) error {
			s, err := load(r)
			if err == nil {
				s.Close()
			}
			return err
		}
	}
	for _, l := range []struct {
		name, golden string
		model        int
		load         func(io.Reader) error
	}{
		{"LoadAWMSketch", "awm", 0, func(r io.Reader) error {
			_, err := LoadAWMSketch(r, nil, nil)
			return err
		}},
		{"Geometry.LoadAWMSketch", "awm", 0, func(r io.Reader) error {
			_, err := awmGeo.LoadAWMSketch(r)
			return err
		}},
		{"LoadSharded", "sharded", shardedHeaderSize, sharded(func(r io.Reader) (*Sharded, error) {
			return LoadSharded(r, nil, nil, ShardedOptions{SyncEvery: -1})
		})},
		{"Geometry.LoadSharded", "sharded", shardedHeaderSize, sharded(func(r io.Reader) (*Sharded, error) {
			return shardedGeo.LoadSharded(r, ShardedOptions{SyncEvery: -1})
		})},
	} {
		blob, err := os.ReadFile(goldenCheckpointPath(l.golden))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.load(bytes.NewReader(blob)); err != nil {
			t.Fatalf("%s: golden checkpoint refused: %v", l.name, err)
		}
		// The first model's sketch header follows its heap entries and
		// holds the flags word at offset 24.
		heapLen := int(binary.LittleEndian.Uint32(blob[l.model+hdrOffHeapLen:]))
		flags := l.model + hdrOffEntries + heapEntrySize*heapLen + 24
		bad := append([]byte(nil), blob...)
		bad[flags] ^= 1
		if err := l.load(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted a sketch header with a flag set", l.name)
		}
	}
}

// craftAWMCheckpoint returns an AWM-Sketch checkpoint with no heap
// entries whose model header declares width×depth and heap capacity
// heapSize, and whose sketch, of zero buckets, declares sketchDepth rows
// of sketchWidth.
func craftAWMCheckpoint(width, depth, heapSize, sketchDepth, sketchWidth int) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, magicAWM)
	for _, v := range []int{serializeVersion, width, depth, heapSize} {
		b = le.AppendUint32(b, uint32(v))
	}
	// λ, seed, scale, step count, heap length.
	b = le.AppendUint64(b, math.Float64bits(1e-6))
	b = le.AppendUint64(b, 42)
	b = le.AppendUint64(b, math.Float64bits(1))
	b = le.AppendUint64(b, 0)
	b = le.AppendUint32(b, 0)
	// The sketch: "WMCS", version, seed, depth, width, flags, buckets.
	b = le.AppendUint32(b, 0x574d4353)
	b = le.AppendUint32(b, 1)
	b = le.AppendUint64(b, 42)
	b = le.AppendUint32(b, uint32(sketchDepth))
	b = le.AppendUint32(b, uint32(sketchWidth))
	b = le.AppendUint32(b, 0)
	return append(b, make([]byte, 8*sketchDepth*sketchWidth)...)
}

// TestPlainLoadersBoundHeaderAllocations: the plain loaders take their
// geometry from the checkpoint, and a few header bytes must not make them
// allocate much before they refuse what follows. Each hostile checkpoint
// is refused by LoadAWMSketch and, as a one-worker sharded checkpoint, by
// LoadSharded, allocating under 64 KiB (GC off). A heap index costs 64 B
// a slot and a hash family ~14 KB a row, so an unbounded heap capacity
// sizes a 67 MB index from 92 bytes and an unbounded depth 56 MB of hash
// tables from 32,852; and an embedded sketch header must be compared
// with the model's before its 1 MiB of buckets is allocated.
func TestPlainLoadersBoundHeaderAllocations(t *testing.T) {
	const bound = 64 << 10
	shardedHeader := func(blob []byte) []byte {
		var hdr [shardedHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:], magicSharded)
		binary.LittleEndian.PutUint32(hdr[4:], serializeVersion)
		binary.LittleEndian.PutUint32(hdr[12:], 1)
		return append(hdr[:], blob...)
	}
	loaders := []struct {
		name  string
		input func([]byte) []byte // the checkpoint around one model
		load  func(io.Reader) error
	}{
		{"LoadAWMSketch", func(b []byte) []byte { return b }, func(r io.Reader) error {
			_, err := LoadAWMSketch(r, nil, nil)
			return err
		}},
		{"LoadSharded", shardedHeader, func(r io.Reader) error {
			s, err := LoadSharded(r, nil, nil, ShardedOptions{SyncEvery: -1})
			if err == nil {
				s.Close()
			}
			return err
		}},
	}
	// The crafting is sound: the same layout at a plausible shape loads.
	for _, l := range loaders {
		if err := l.load(bytes.NewReader(l.input(craftAWMCheckpoint(64, 1, 16, 1, 64)))); err != nil {
			t.Fatalf("%s: a plausible crafted checkpoint was refused: %v", l.name, err)
		}
	}
	for _, c := range []struct {
		name string
		blob []byte
	}{
		{"huge heap", craftAWMCheckpoint(1, 1, 1<<20, 1, 1)},
		{"deep and narrow", craftAWMCheckpoint(1, 4096, 16, 4096, 1)},
		{"sketch header disagrees", craftAWMCheckpoint(64, 1, 16, 1, 1<<17)},
	} {
		for _, l := range loaders {
			r := bytes.NewReader(l.input(c.blob))
			runtime.GC()
			gc := debug.SetGCPercent(-1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := l.load(r)
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gc)
			allocated := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s, %s: %d bytes in, %d allocated: %v", c.name, l.name, r.Size(), allocated, err)
			if err == nil {
				t.Errorf("%s: %s accepted it", c.name, l.name)
			}
			if allocated > bound {
				t.Errorf("%s: %s allocated %d bytes from %d, bound %d", c.name, l.name, allocated, r.Size(), bound)
			}
		}
	}
}
