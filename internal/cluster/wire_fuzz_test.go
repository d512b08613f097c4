package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// fuzzCorpus builds seed inputs from real encoded streams: a digest-only
// stream, a full sync, a delta, plus truncated and bit-flipped variants,
// and a hand-built delta whose change gap wraps uint64 — the corpus CI's
// fuzz smoke starts from.
func fuzzCorpus(f *testing.F) {
	b := newMemberF(f, "node-b")
	for _, ex := range datagen.RCV1Like(21).Take(300) {
		b.learner.Update(ex.X, ex.Y)
	}
	if _, _, err := b.node.PublishLocal(); err != nil {
		f.Fatal(err)
	}
	full := b.node.BuildFrames(map[string]int64{}, true)
	var buf bytes.Buffer
	if _, err := WriteFrames(&buf, full); err != nil {
		f.Fatal(err)
	}
	fullStream := append([]byte(nil), buf.Bytes()...)
	base := full[len(full)-1].Version

	for _, ex := range datagen.RCV1Like(22).Take(40) {
		b.learner.Update(ex.X, ex.Y)
	}
	if _, _, err := b.node.PublishLocal(); err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if _, err := WriteFrames(&buf, b.node.BuildFrames(map[string]int64{"node-b": base}, false)); err != nil {
		f.Fatal(err)
	}
	deltaStream := append([]byte(nil), buf.Bytes()...)

	buf.Reset()
	if _, err := WriteFrames(&buf, []Frame{{Kind: kindDigest, Digest: map[string]int64{"a": 1, "b": 2}}}); err != nil {
		f.Fatal(err)
	}
	digestStream := append([]byte(nil), buf.Bytes()...)

	for _, s := range [][]byte{digestStream, fullStream, deltaStream} {
		f.Add(s)
		// Truncations at interesting depths: inside the header, the length
		// prefix, the payload, and the checksum trailer.
		for _, cut := range []int{3, 9, len(s) / 2, len(s) - 3, len(s) - 1} {
			if cut > 0 && cut < len(s) {
				f.Add(append([]byte(nil), s[:cut]...))
			}
		}
		// Bit flips across the stream.
		for _, at := range []int{0, 5, 8, len(s) / 3, 2 * len(s) / 3, len(s) - 2} {
			if at >= 0 && at < len(s) {
				c := append([]byte(nil), s...)
				c[at] ^= 0xA5
				f.Add(c)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte("WMCF"))
	f.Add(wrappingDeltaStream())
}

// newMemberF mirrors newMember for fuzz seeding (testing.F, not testing.T).
func newMemberF(f *testing.F, id string) *testMember {
	f.Helper()
	cfg := clusterConfig()
	l := core.NewAWMSketch(cfg)
	n, err := NewNode(Config{Self: id, Mix: mixOpt(cfg), Local: l, Interval: -1})
	if err != nil {
		f.Fatal(err)
	}
	return &testMember{node: n, learner: l}
}

// FuzzReadFrames: whatever bytes arrive, the decoder must return cleanly —
// no panic, no unbounded allocation — and anything it does accept must
// survive a re-encode/re-decode round trip (decoded state is well-formed,
// not just non-crashing). The heavy lists it accepts, which may repeat
// keys and come in any order, must also diff and replay as the map-based
// reference definitions do (checkDiff, checkApply).
func FuzzReadFrames(f *testing.F) {
	fuzzCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := ReadFrames(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, fr := range frames {
			for _, list := range [][]stream.Weighted{fr.Heavy, fr.HeavyUpserts} {
				base, cur := list[:len(list)/2], list[len(list)/2:]
				what := fmt.Sprintf("decoded lists of %d and %d entries", len(base), len(cur))
				checkDiff(t, what, base, cur)
				checkApply(t, what, base, fr.HeavyRemoved, cur)
			}
		}
		var buf bytes.Buffer
		if _, err := WriteFrames(&buf, frames); err != nil {
			t.Fatalf("accepted stream failed to re-encode: %v", err)
		}
		again, err := ReadFrames(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", err)
		}
		if len(again) != len(frames) {
			t.Fatalf("round trip changed frame count: %d -> %d", len(frames), len(again))
		}
	})
}
