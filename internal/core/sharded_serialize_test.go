package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// Checkpoint/restore tests for the Sharded learner: per-shard state must
// survive a WriteTo/LoadSharded round trip exactly, including while training
// continues on other goroutines.

func TestShardedCheckpointRoundTrip(t *testing.T) {
	cfg := Config{Width: 512, Depth: 1, HeapSize: 64, Lambda: 1e-5, Seed: 21}
	s := NewSharded(cfg, ShardedOptions{Workers: 3, SyncEvery: -1})
	defer s.Close()
	gen := datagen.RCV1Like(8)
	data := gen.Take(3000)
	for i := 0; i+64 <= len(data); i += 64 {
		s.UpdateBatch(data[i : i+64])
	}

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	s.Sync() // learner must still be live after a checkpoint

	got, err := LoadSharded(bytes.NewReader(buf.Bytes()), nil, nil, ShardedOptions{})
	if err != nil {
		t.Fatalf("LoadSharded: %v", err)
	}
	defer got.Close()

	if got.Steps() != s.Steps() {
		t.Errorf("steps %d != %d", got.Steps(), s.Steps())
	}
	for i := uint32(0); i < 2048; i++ {
		if g, w := got.Estimate(i), s.Estimate(i); g != w {
			t.Fatalf("Estimate(%d) = %v, want %v", i, g, w)
		}
	}
	probe := gen.Next().X
	if g, w := got.Predict(probe), s.Predict(probe); g != w {
		t.Fatalf("Predict = %v, want %v", g, w)
	}
	gotTop, wantTop := got.TopK(16), s.TopK(16)
	if len(gotTop) != len(wantTop) {
		t.Fatalf("TopK lengths %d vs %d", len(gotTop), len(wantTop))
	}
	for i := range wantTop {
		if gotTop[i] != wantTop[i] {
			t.Fatalf("TopK[%d] = %+v, want %+v", i, gotTop[i], wantTop[i])
		}
	}

	// The restored learner must keep training.
	got.Update(probe, 1)
	got.Sync()
}

// TestShardedCheckpointAfterClose covers the quiescent path: a closed
// learner serializes without the freeze handshake.
func TestShardedCheckpointAfterClose(t *testing.T) {
	cfg := Config{Width: 128, Depth: 2, HeapSize: 16, Lambda: 0, Seed: 5}
	s := NewSharded(cfg, ShardedOptions{Workers: 2, SyncEvery: -1})
	gen := datagen.RCV1Like(3)
	for _, ex := range gen.Take(500) {
		s.Update(ex.X, ex.Y)
	}
	s.Close()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSharded(&buf, nil, nil, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	for i := uint32(0); i < 512; i++ {
		if g, w := got.Estimate(i), s.Estimate(i); g != w {
			t.Fatalf("Estimate(%d) = %v, want %v", i, g, w)
		}
	}
}

// TestShardedCheckpointConcurrentWithUpdates exercises the freeze handshake
// under contention: checkpoints interleave with concurrent Update callers
// and must neither deadlock nor corrupt state (-race covers the rest).
func TestShardedCheckpointConcurrentWithUpdates(t *testing.T) {
	cfg := Config{Width: 256, Depth: 1, HeapSize: 32, Lambda: 1e-6, Seed: 2}
	s := NewSharded(cfg, ShardedOptions{Workers: 2, SyncEvery: -1})
	defer s.Close()
	gen := datagen.RCV1Like(4)
	data := gen.Take(2000)

	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := off; i < len(data); i += 2 {
				s.Update(data[i].X, data[i].Y)
			}
		}(p)
	}
	for c := 0; c < 5; c++ {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Errorf("checkpoint %d: %v", c, err)
		}
		got, err := LoadSharded(&buf, nil, nil, ShardedOptions{})
		if err != nil {
			t.Fatalf("checkpoint %d: %v", c, err)
		}
		got.Close()
	}
	wg.Wait()
}

func TestLoadShardedRejectsCorruptHeader(t *testing.T) {
	cfg := Config{Width: 64, Depth: 1, HeapSize: 8, Lambda: 0, Seed: 1}
	s := NewSharded(cfg, ShardedOptions{Workers: 1, SyncEvery: -1})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	blob := buf.Bytes()

	// Implausible worker count (offset 12 = magic+version+variant).
	bad := append([]byte(nil), blob...)
	bad[12], bad[13], bad[14], bad[15] = 0xff, 0xff, 0xff, 0x7f
	if _, err := LoadSharded(bytes.NewReader(bad), nil, nil, ShardedOptions{}); err == nil {
		t.Error("implausible worker count must be rejected")
	}
	// Any variant but 0 (AWM shards), including the retired WM-shard 1.
	for _, variant := range []byte{1, 2, 0xff} {
		bad := append([]byte(nil), blob...)
		bad[8] = variant
		if _, err := LoadSharded(bytes.NewReader(bad), nil, nil, ShardedOptions{}); !errors.Is(err, errShardVariant) {
			t.Errorf("variant %d: err = %v, want errShardVariant", variant, err)
		}
	}
	// Truncated model payload.
	if _, err := LoadSharded(bytes.NewReader(blob[:len(blob)-9]), nil, nil, ShardedOptions{}); err == nil {
		t.Error("truncated shard payload must be rejected")
	}
}

var _ stream.Learner = (*Sharded)(nil)
