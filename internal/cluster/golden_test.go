package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
)

// goldenStreams builds the gossip streams pinned under testdata: a digest,
// a full snapshot and a delta, each written by WriteFrames (untraced
// header) from learners trained on a fixed datagen seed. The files were
// written once and are never regenerated by the tests, so they pin the
// codec and the canonical heavy-list order, which the fuzz corpus (rebuilt
// from the current encoder on every run) cannot.
func goldenStreams(tb testing.TB) map[string][]byte {
	tb.Helper()
	cfg := core.Config{Width: 1024, Depth: 1, HeapSize: 256, Lambda: 1e-6, Seed: 11}
	member := func(id string) *testMember {
		l := core.NewAWMSketch(cfg)
		n, err := NewNode(Config{Self: id, Mix: mixOpt(cfg), Local: l, Interval: -1})
		if err != nil {
			tb.Fatal(err)
		}
		return &testMember{node: n, learner: l}
	}
	write := func(frames []Frame) []byte {
		var buf bytes.Buffer
		if _, err := WriteFrames(&buf, frames); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	publish := func(m *testMember) {
		if _, _, err := m.node.PublishLocal(); err != nil {
			tb.Fatal(err)
		}
	}

	a, b := member("node-a"), member("node-b")
	gen := datagen.RCV1Like(41)
	train(a, gen.Take(1500))
	train(b, gen.Take(3000))
	publish(a)
	publish(b)

	full := b.node.BuildFrames(map[string]int64{}, false)
	if len(full) != 1 || full[0].Kind != kindFull {
		tb.Fatalf("full stream: %d frames, want one full frame", len(full))
	}
	base := full[0].Version
	if res := a.node.ApplyFrames(full); res.Applied != 1 {
		tb.Fatalf("applying the full frame: %+v", res)
	}
	// a now knows both origins, so its digest has two entries.
	digest := a.node.BuildFrames(map[string]int64{"node-a": 1 << 40, "node-b": 1 << 40}, true)
	if len(digest) != 1 || digest[0].Kind != kindDigest {
		tb.Fatalf("digest stream: %d frames, want one digest frame", len(digest))
	}

	train(b, gen.Take(60))
	publish(b)
	delta := b.node.BuildFrames(map[string]int64{"node-b": base}, false)
	if len(delta) != 1 || delta[0].Kind != kindDelta {
		tb.Fatalf("delta stream: %d frames, want one delta frame", len(delta))
	}
	if len(delta[0].HeavyRemoved) == 0 || len(delta[0].HeavyUpserts) == 0 {
		tb.Fatalf("delta frame has %d heavy removals and %d upserts; the golden stream should pin both",
			len(delta[0].HeavyRemoved), len(delta[0].HeavyUpserts))
	}
	return map[string][]byte{
		"digest": write(digest),
		"full":   write(full),
		"delta":  write(delta),
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden_"+name+".bin")
}

// TestGoldenGossipStreams: the encoder must reproduce the committed
// streams byte for byte, and each committed stream must decode and
// re-encode to itself.
func TestGoldenGossipStreams(t *testing.T) {
	for name, got := range goldenStreams(t) {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				at := 0
				for at < len(got) && at < len(want) && got[at] == want[at] {
					at++
				}
				t.Fatalf("WriteFrames produced %d bytes, golden has %d; first difference at byte %d",
					len(got), len(want), at)
			}
			frames, err := ReadFrames(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := WriteFrames(&buf, frames); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatal("golden stream does not survive a ReadFrames/WriteFrames round trip")
			}
		})
	}
}
