package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
)

// goldenCheckpoints builds the checkpoints pinned under testdata: a
// Count-Sketch, an AWM-Sketch and a 2-worker sharded learner, each at
// small geometry and fed from a fixed datagen seed. The files were written once, before the checkpoint decoders moved
// onto internal/frame, and the tests never rewrite them: they pin the
// checkpoint bytes the way testdata/golden_*.bin pins the gossip streams.
func goldenCheckpoints(tb testing.TB) map[string][]byte {
	tb.Helper()
	data := datagen.RCV1Like(17).Take(600)
	write := func(m io.WriterTo) []byte {
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}

	cs := sketch.NewCountSketch(3, 64, 5)
	for _, ex := range data {
		for _, f := range ex.X {
			cs.Update(f.Index, float64(ex.Y)*f.Value)
		}
	}

	awm := NewAWMSketch(Config{Width: 128, Depth: 3, HeapSize: 16, Lambda: 1e-4, Seed: 9})
	for _, ex := range data {
		awm.Update(ex.X, ex.Y)
	}

	sh := NewSharded(Config{Width: 128, Depth: 2, HeapSize: 16, Lambda: 1e-5, Seed: 9},
		ShardedOptions{Workers: 2, SyncEvery: -1})
	defer sh.Close()
	for i := 0; i < len(data); i += 50 {
		sh.UpdateBatch(data[i : i+50])
	}

	return map[string][]byte{
		"countsketch": write(cs),
		"awm":         write(awm),
		"sharded":     write(sh),
	}
}

// reloadCheckpoint restores a golden checkpoint with the loader for its
// kind and serializes the result again.
func reloadCheckpoint(tb testing.TB, name string, blob []byte) []byte {
	tb.Helper()
	r := bytes.NewReader(blob)
	var m io.WriterTo
	var err error
	switch name {
	case "countsketch":
		m, err = sketch.ReadCountSketch(r)
	case "awm":
		m, err = LoadAWMSketch(r, nil, nil)
	case "sharded":
		var s *Sharded
		s, err = LoadSharded(r, nil, nil, ShardedOptions{SyncEvery: -1})
		if err == nil {
			defer s.Close()
			m = s
		}
	default:
		tb.Fatalf("unknown golden checkpoint %q", name)
	}
	if err != nil {
		tb.Fatalf("%s: restore: %v", name, err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		tb.Fatalf("%s: re-serialize: %v", name, err)
	}
	return buf.Bytes()
}

func goldenCheckpointPath(name string) string {
	return filepath.Join("testdata", "golden_"+name+".ckpt")
}

// TestGoldenCheckpoints: WriteTo must reproduce each committed checkpoint
// byte for byte, and each committed checkpoint must restore and serialize
// back to itself.
func TestGoldenCheckpoints(t *testing.T) {
	for name, got := range goldenCheckpoints(t) {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(goldenCheckpointPath(name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				at := 0
				for at < len(got) && at < len(want) && got[at] == want[at] {
					at++
				}
				t.Fatalf("WriteTo produced %d bytes, golden has %d; first difference at byte %d",
					len(got), len(want), at)
			}
			if again := reloadCheckpoint(t, name, want); !bytes.Equal(again, want) {
				t.Fatal("golden checkpoint does not survive a restore/WriteTo round trip")
			}
		})
	}
}

// shardedViewDigest trains a 2-worker Sharded on whole batches of data,
// each split evenly over the workers, and hashes the view it serves twice:
// after a Sync halfway through and after Close. The hash covers Estimate
// over feature ids [0, 2^16), the full TopK, and every merged bucket.
func shardedViewDigest(tb testing.TB, cfg Config, data []stream.Example, batch int) string {
	tb.Helper()
	sh := NewSharded(cfg, ShardedOptions{Workers: 2, SyncEvery: -1})
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	hashView := func() {
		for i := uint32(0); i < 1<<16; i++ {
			put(math.Float64bits(sh.Estimate(i)))
		}
		for _, w := range sh.TopK(cfg.HeapSize) {
			put(uint64(w.Index))
			put(math.Float64bits(w.Weight))
		}
		cs := sh.currentView().Sketch()
		for j := 0; j < cs.Depth(); j++ {
			for _, b := range cs.Row(j) {
				put(math.Float64bits(b))
			}
		}
	}
	for i := 0; i < len(data); i += batch {
		sh.UpdateBatch(data[i : i+batch])
		if i+batch == len(data)/2 {
			sh.Sync()
			hashView()
		}
	}
	sh.Close()
	hashView()
	return hex.EncodeToString(h.Sum(nil))
}

// TestShardedViewPinned pins the merged view of a 2-worker Sharded at the
// geometries the benchmark's ingest (3×2^17, batches of 512) and mixed
// (4096×1, batches of 64) workloads serve. A change to how shards hand
// their state to the merge must leave the view bit for bit as it was
// whenever the shards hold equal step counts. The digests are re-recorded
// only when what a snapshot holds changes, as when its sketch became the
// learner's tail without the active set written back.
func TestShardedViewPinned(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		data  []stream.Example
		batch int
		want  string
	}{
		{"ingest", Config{Width: 1 << 17, Depth: 3, HeapSize: 2048, Lambda: 1e-6, Seed: 42},
			datagen.URLLike(5).Take(16 * 512), 512,
			"faabd1c1dd46b407f3ed5cb4cd34a7c2724ec1249bdd6f68606ddcd1b78bbc2e"},
		{"mixed", Config{Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 42},
			datagen.RCV1Like(5).Take(64 * 64), 64,
			"c316aa145fd98f9cf59cf2643038c55fa93fd3eefe2843880b968ba93503722c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := shardedViewDigest(t, tc.cfg, tc.data, tc.batch); got != tc.want {
				t.Fatalf("merged view digest %s, pinned %s", got, tc.want)
			}
		})
	}
}
