package core

import (
	"bytes"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// BenchmarkLoadCheckpoint restores a 2-worker sharded checkpoint at the
// geometry of perfbench's ingest workload (3×2^17, URL-like warm start)
// and of its mixed workload (4096×1, RCV1-like), as wmserve does at boot.
// Each restore includes the workers' start and the first snapshot merge.
func BenchmarkLoadCheckpoint(b *testing.B) {
	for _, c := range []struct {
		name         string
		width, depth int
		warm         []stream.Example
	}{
		{"ingest", 1 << 17, 3, datagen.URLLike(42).Take(32768)},
		{"mixed", 4096, 1, datagen.RCV1Like(42).Take(16384)},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := Config{Width: c.width, Depth: c.depth, HeapSize: 2048, Lambda: 1e-6, Seed: 42}
			s := NewSharded(cfg, ShardedOptions{Workers: 2})
			for i := 0; i < len(c.warm); i += 512 {
				s.UpdateBatch(c.warm[i:min(i+512, len(c.warm))])
			}
			var ckpt bytes.Buffer
			if _, err := s.WriteTo(&ckpt); err != nil {
				b.Fatal(err)
			}
			s.Close()
			b.ReportAllocs()
			b.SetBytes(int64(ckpt.Len()))
			for b.Loop() {
				got, err := LoadSharded(bytes.NewReader(ckpt.Bytes()), nil, nil, ShardedOptions{})
				if err != nil {
					b.Fatal(err)
				}
				got.Close()
			}
		})
	}
}
