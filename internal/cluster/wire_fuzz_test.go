package cluster

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// fuzzCorpus builds seed inputs from real encoded streams: a digest-only
// stream, a full sync, a delta, plus truncated and bit-flipped variants,
// a hand-built delta whose change gap wraps uint64, and a delta at the
// full sync's version with a non-finite change ahead of the real delta —
// the corpus CI's fuzz smoke starts from. It returns a node that holds
// the full sync, so that its frame, and the hand-built one, read stale
// through it.
func fuzzCorpus(f *testing.F) *Node {
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

	// A stale frame malformed past its version: ReadFrames refuses the
	// stream, and the holder reads the frame as a stub and the delta after
	// it whole.
	f.Add(append(handStream(kindDelta, infDeltaPayload(f, "node-b", base)), deltaStream[streamHeaderSize:]...))

	holder := newMemberF(f, "node-a")
	frames, err := ReadFrames(bytes.NewReader(fullStream))
	if err != nil {
		f.Fatal(err)
	}
	if res := holder.node.ApplyFrames(frames); res.Applied != 1 {
		f.Fatalf("the holder adopted %d of the full sync's frames, want 1", res.Applied)
	}
	return holder.node
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
// reference definitions do (checkDiff, checkApply). The same bytes read
// through a node that holds versions must agree (checkNodeRead).
func FuzzReadFrames(f *testing.F) {
	holder := fuzzCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := ReadFrames(bytes.NewReader(data))
		checkNodeRead(t, holder, data, frames, err)
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

// checkNodeRead reads data as a node that holds versions reads a peer's
// stream (Node.ReadFramesTraced): it must return cleanly. A frame read as
// a stale stub names a version the node holds and carries nothing past
// it, and a frame read whole re-encodes. Where ReadFrames accepted the
// stream as whole, the node reads the same frames, a stub in place of
// each stale one, or refuses a full frame of another geometry.
func checkNodeRead(t *testing.T, n *Node, data []byte, whole []Frame, wholeErr error) {
	frames, _, err := n.ReadFramesTraced(bytes.NewReader(data))
	if err != nil {
		if wholeErr == nil && !slices.ContainsFunc(whole, func(f Frame) bool {
			return f.Kind == kindFull && !n.geo.Matches(f.CS.Depth(), f.CS.Width(), f.CS.Seed())
		}) {
			t.Fatalf("ReadFrames accepts the stream, and the node refuses it: %v", err)
		}
		return
	}
	held := n.Digest()
	var read []Frame
	for i, f := range frames {
		if !f.stale {
			read = append(read, f)
			continue
		}
		if v, ok := held[f.Origin]; !ok || f.Version > v || f.Kind == kindDigest || f.CS != nil ||
			f.Heavy != nil || f.Changes != nil || f.HeavyRemoved != nil || f.HeavyUpserts != nil || f.Digest != nil {
			t.Fatalf("frame %d: stub %+v is not a held version's origin and version alone", i, f)
		}
	}
	if _, err := WriteFrames(io.Discard, read); err != nil {
		t.Fatalf("a frame the node read whole failed to re-encode: %v", err)
	}
	if wholeErr != nil {
		return
	}
	if len(frames) != len(whole) {
		t.Fatalf("the node read %d frames, ReadFrames %d", len(frames), len(whole))
	}
	for i, f := range frames {
		w := whole[i]
		if f.Kind != w.Kind || f.Origin != w.Origin || f.Version != w.Version || f.WireBytes != w.WireBytes {
			t.Fatalf("frame %d: the node read a %s frame of %q at %d (%d bytes), ReadFrames a %s frame of %q at %d (%d bytes)",
				i, kindLabel(f.Kind), f.Origin, f.Version, f.WireBytes, kindLabel(w.Kind), w.Origin, w.Version, w.WireBytes)
		}
		if !f.stale && !bytes.Equal(encodeFrames(t, []Frame{f}), encodeFrames(t, []Frame{w})) {
			t.Fatalf("frame %d: the node and ReadFrames read different frames", i)
		}
	}
}
