package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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

func trainedWMBlob(t *testing.T) []byte {
	t.Helper()
	w := NewWMSketch(Config{Width: 64, Depth: 2, HeapSize: 8, Lambda: 1e-4, Seed: 3})
	gen := datagen.RCV1Like(1)
	for _, ex := range gen.Take(200) {
		w.Update(ex.X, ex.Y)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsImplausibleHeap(t *testing.T) {
	blob := trainedWMBlob(t)
	// heapSize = heapLen = 0xFFFFFFFF passes the heapLen<=heapSize check but
	// would demand a ~100 GiB entries slice plus a 4x index table; the load
	// must error on the capacity bound before allocating.
	bad := append([]byte(nil), blob...)
	for _, off := range []int{hdrOffHeapSize, hdrOffHeapLen} {
		binary.LittleEndian.PutUint32(bad[off:], math.MaxUint32)
	}
	if _, err := LoadWMSketch(bytes.NewReader(bad), nil, nil); err == nil {
		t.Error("implausible heap capacity must be rejected")
	}
	// heapSize = 0 would panic Config.fill; it must error instead.
	bad = append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[hdrOffHeapSize:], 0)
	binary.LittleEndian.PutUint32(bad[hdrOffHeapLen:], 0)
	if _, err := LoadWMSketch(bytes.NewReader(bad), nil, nil); err == nil {
		t.Error("zero heap capacity must be rejected, not panic")
	}
}

func TestLoadRejectsCorruptScalars(t *testing.T) {
	blob := trainedWMBlob(t)
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
		if _, err := LoadWMSketch(bytes.NewReader(bad), nil, nil); err == nil {
			t.Errorf("%s: corrupt checkpoint must be rejected", tc.name)
		}
	}
	// The unpatched blob still loads (the patches above, not the harness,
	// cause the rejections).
	if _, err := LoadWMSketch(bytes.NewReader(blob), nil, nil); err != nil {
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
	wm, awm := NewWMSketch(cfg), NewAWMSketch(cfg)
	for _, ex := range data {
		wm.Update(ex.X, ex.Y)
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
		{"wm", 0, blob(wm), func(r io.Reader, s linear.Schedule) error {
			_, err := LoadWMSketch(r, nil, s)
			return err
		}},
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
