package cluster

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
)

// handStream frames one hand-built payload as a CRC-valid, untraced
// stream, so a test can reach the payload decoder with field values the
// encoder would never write.
func handStream(kind byte, payload []byte) []byte {
	var hdr [streamHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], wireVersion)
	binary.LittleEndian.PutUint32(hdr[32:], crc32.ChecksumIEEE(hdr[:32]))
	s := append(hdr[:], kind)
	s = binary.AppendUvarint(s, uint64(len(payload)))
	s = append(s, payload...)
	return binary.LittleEndian.AppendUint32(s, crc32.ChecksumIEEE(payload))
}

// wrappingDeltaStream is a delta frame whose change gaps are 5, 2^64−1
// and 1. Added in uint64, the second gap wraps to index 4, so a decoder
// that bounds only the sum yields the descending indices 5, 4, 5.
func wrappingDeltaStream() []byte {
	p := binary.AppendUvarint(nil, uint64(len("node-a")))
	p = append(p, "node-a"...)
	p = binary.AppendUvarint(p, 200) // version
	p = binary.AppendUvarint(p, 100) // base
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(1))
	p = binary.AppendUvarint(p, 3)
	for _, gap := range []uint64{5, math.MaxUint64, 1} {
		p = binary.AppendUvarint(p, gap)
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(0.5))
	}
	p = binary.AppendUvarint(p, 0) // heavy removals
	p = binary.AppendUvarint(p, 0) // heavy upserts
	return handStream(kindDelta, p)
}

// infDeltaPayload is a delta payload of origin at version, on the
// version before it, whose one change is +Inf, which the decoder refuses.
func infDeltaPayload(tb testing.TB, origin string, version int64) []byte {
	tb.Helper()
	p := binary.AppendUvarint(nil, uint64(len(origin)))
	p = append(p, origin...)
	p = binary.AppendUvarint(p, uint64(version))
	p = binary.AppendUvarint(p, uint64(version-1))
	p, err := appendDeltaLists(binary.LittleEndian.AppendUint64(p, math.Float64bits(1)),
		[]sketch.BucketChange{{Index: 3, Value: math.Inf(1)}}, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestNodeReadsMalformedStaleFrameAsStub: a node reads a frame whose
// version it holds no further than that version. A stale frame malformed
// past it, here by a non-finite change, fails its stream through
// ReadFrames; a node that holds the version reads it as a stub, reads the
// frames after it whole, and counts it stale.
func TestNodeReadsMalformedStaleFrameAsStub(t *testing.T) {
	b, holder := newMember(t, "node-b"), newMember(t, "node-a")
	for _, ex := range datagen.RCV1Like(3).Take(200) {
		b.learner.Update(ex.X, ex.Y)
	}
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	full := b.node.BuildFrames(map[string]int64{}, false)
	if res := holder.node.ApplyFrames(full); len(full) != 1 || res.Applied != 1 {
		t.Fatalf("the holder adopted %d of %d frames", res.Applied, len(full))
	}
	v := full[0].Version
	digest := encodeFrames(t, []Frame{{Kind: kindDigest, Digest: map[string]int64{"node-b": v}}})
	s := append(handStream(kindDelta, infDeltaPayload(t, "node-b", v)), digest[streamHeaderSize:]...)
	if _, err := ReadFrames(bytes.NewReader(s)); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("ReadFrames: %v, want the non-finite change refused", err)
	}
	frames, _, err := holder.node.ReadFramesTraced(bytes.NewReader(s))
	if err != nil || len(frames) != 2 || !frames[0].stale || frames[0].Version != v || frames[1].Kind != kindDigest {
		t.Fatalf("the holder read %d frames (%v), want a stale stub at version %d and the digest", len(frames), err, v)
	}
	if res := holder.node.ApplyFrames(frames); res.Stale != 1 || res.Rejected != 0 || res.TheirDigest["node-b"] != v {
		t.Fatalf("apply: %+v, want the stub stale and the digest read", res)
	}
}

// TestReadFramesRejectsWrappingDeltaGap: a change gap is bounded by
// MaxUint32 − previous index before it is added, so it can neither
// overflow uint32 nor wrap uint64 into a descending index.
func TestReadFramesRejectsWrappingDeltaGap(t *testing.T) {
	frames, err := ReadFrames(bytes.NewReader(wrappingDeltaStream()))
	if err == nil {
		var idx []uint32
		for _, ch := range frames[0].Changes {
			idx = append(idx, ch.Index)
		}
		t.Fatalf("wrapping gap accepted, change indices %v", idx)
	}
	if !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("wrapping gap: %v, want an overflow error", err)
	}

	// The largest gap that still fits is accepted.
	p := binary.AppendUvarint(nil, 1)
	p = append(p, 'a')
	p = binary.AppendUvarint(p, 2)
	p = binary.AppendUvarint(p, 1)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(1))
	p = binary.AppendUvarint(p, 2)
	for _, gap := range []uint64{5, math.MaxUint32 - 5} {
		p = binary.AppendUvarint(p, gap)
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(0.5))
	}
	p = append(p, 0, 0)
	frames, err = ReadFrames(bytes.NewReader(handStream(kindDelta, p)))
	if err != nil {
		t.Fatalf("gap up to MaxUint32 rejected: %v", err)
	}
	if got := frames[0].Changes[1].Index; got != math.MaxUint32 {
		t.Fatalf("last change index %d, want %d", got, uint32(math.MaxUint32))
	}
}

// TestReadFramesRefusesSketchFlags: a full frame's sketch travels in its
// checkpoint serialization, whose flags no writer sets. A CRC-valid full
// frame whose sketch header sets one fails the stream, read with the
// geometry of its header or on a node's, instead of being adopted and
// relayed with the flag cleared.
func TestReadFramesRefusesSketchFlags(t *testing.T) {
	cfg := core.Config{Width: 64, Depth: 1, HeapSize: 16, Seed: 7}
	cs := sketch.NewCountSketch(cfg.Depth, cfg.Width, cfg.Seed)
	cs.Update(3, 0.5)
	full := Frame{Kind: kindFull, Origin: "node-a", Version: 10, Scale: 1,
		Heavy: []stream.Weighted{{Index: 3, Weight: 0.5}}, CS: cs}
	payload, err := appendFramePayload(nil, &full)
	if err != nil {
		t.Fatal(err)
	}
	flagged := append([]byte(nil), payload...)
	flagged[len(flagged)-cs.EncodedSize()+24] |= 1
	n, err := NewNode(Config{Self: "node-b", Mix: mixOpt(cfg), Local: core.NewAWMSketch(cfg), Interval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name string
		read func(io.Reader) error
	}{
		{"ReadFrames", func(r io.Reader) error {
			_, err := ReadFrames(r)
			return err
		}},
		{"Node.ReadFramesTraced", func(r io.Reader) error {
			_, _, err := n.ReadFramesTraced(r)
			return err
		}},
	} {
		if err := r.read(bytes.NewReader(handStream(kindFull, payload))); err != nil {
			t.Fatalf("%s: the unflagged frame was refused: %v", r.name, err)
		}
		if err := r.read(bytes.NewReader(handStream(kindFull, flagged))); err == nil {
			t.Errorf("%s: accepted a full frame whose sketch header sets a flag", r.name)
		}
	}
}
