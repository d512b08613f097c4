// Package cluster replicates WM-/AWM-Sketch models between wmserve nodes
// without a coordinator or shared disk. Each node periodically exchanges
// model state with its configured peers and merges everything it knows via
// example-count-weighted parameter mixing (core.MixSnapshots) — the
// paper's linear-mergeability property applied across machines instead of
// across cores. State is replicated per origin (one entry per node id),
// which makes merging idempotent and convergent: receiving the same frame
// twice, or the same state along two gossip paths, cannot double-count an
// example. See CLUSTER.md for the topology and convergence discussion.
package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"wmsketch/internal/core"
	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
	"wmsketch/internal/trace"
)

// Wire format (little-endian). A frame stream is
//
//	magic    uint32 ("WMCF")
//	version  uint32
//	trace id [16]byte (v3: W3C trace id of the round this stream belongs to)
//	span id  [8]byte  (v3: the sending span; all-zero trace/span = untraced)
//	crc32    uint32   (v3: IEEE, over the 32 bytes above)
//
//	frames  until EOF
//
// The trace annotation is how a gossip stream stays causally attributable
// without a per-frame cost: the receiver continues the sender's trace when
// applying the stream, which is what the simulator's causal-lineage gate
// checks end to end. It rides in the header (not a frame) so the fixed
// stream overhead stays constant and the byte-accounting invariant stays
// exact. The header CRC exists for the same reason the per-frame one does:
// magic/version checks cannot see a flipped bit inside the annotation, and
// an apply recorded under a corrupted trace id would be lineage evidence
// pointing at a round that never happened.
//
// Each frame is
//
//	kind    byte
//	length  uvarint (payload bytes)
//	payload length bytes, kind-specific fields
//	crc32   uint32 (IEEE, over the payload)
//
// The per-frame CRC exists because structural validation alone cannot
// catch payload corruption: a bit flip inside a float64 weight is still
// finite, bounded, and perfectly parseable — without the checksum it would
// be ingested into model state at a valid version and gossip onward. With
// it, any corrupted frame fails the stream whole and the round is retried.
//
// Within a payload: origins are length-prefixed UTF-8 strings; counts and
// bucket indices are uvarints; model versions are uvarints (a version IS
// the origin's example count, so it is non-negative and monotonic);
// weights and bucket values are raw float64 bits.
//
// Frame kinds:
//
//	digest: the sender's origin → version map. Carried in pull responses so
//	        the requester can push back what the responder lacks
//	        (push-pull anti-entropy in one round trip).
//	full:   a complete snapshot of one origin's model — heavy list plus the
//	        folded Count-Sketch in its own (hardened) serialization.
//	delta:  only what changed between the receiver's acked version (base)
//	        and the sender's current version: changed buckets as
//	        gap-encoded flat indices with their new values, plus the heavy
//	        list diff (removed keys + upserted entries). Values are
//	        absolute, not additive, so replay is harmless.
const (
	frameMagic  = 0x574d4346 // "WMCF"
	wireVersion = 3          // v2 added per-frame length + CRC32; v3 the header trace annotation
	// streamHeaderSize is the fixed stream prefix: magic, version, the
	// 24-byte trace annotation, and the header CRC.
	streamHeaderSize = 4 + 4 + 16 + 8 + 4
	kindDigest       = byte(1)
	kindFull         = byte(2)
	kindDelta        = byte(3)
	maxOriginLen     = 256
	// maxFrameBytes bounds one frame's declared payload length.
	maxFrameBytes = 1 << 28
	// Per-kind count bounds, each matched to what the data can legitimately
	// hold: a digest has one entry per cluster member, a heavy list is
	// capped by the serialization layer's heap bound (2^24, mirroring
	// core's maxSerializedHeap), and a change list by the sketch bucket
	// bound (2^27, mirroring sketch's maxSerializedBuckets).
	maxDigestEntries = 1 << 16
	maxHeavyEntries  = 1 << 24
	maxChangeEntries = 1 << 27
	// maxUpfrontAlloc caps the capacity allocated from a wire-supplied
	// count alone. Larger (still-bounded) counts grow by append as payload
	// bytes actually arrive, so a tiny hostile frame claiming 2^27 entries
	// cannot demand gigabytes before its (absent) payload fails to read.
	maxUpfrontAlloc = 1 << 16
)

func upfrontCap(n int) int {
	if n > maxUpfrontAlloc {
		return maxUpfrontAlloc
	}
	return n
}

// Frame is one decoded wire frame.
type Frame struct {
	Kind    byte
	Origin  string
	Version int64 // the origin's example count at this state
	Base    int64 // delta: the version the changes apply to
	// Scale is the model's global decay multiplier at this version
	// (model = Scale·CS). Buckets travel raw so deltas stay sparse; the
	// scale is one float per frame.
	Scale float64

	// Full payload.
	CS    *sketch.CountSketch
	Heavy []stream.Weighted

	// Delta payload.
	Changes      []sketch.BucketChange
	HeavyRemoved []uint32
	HeavyUpserts []stream.Weighted

	// Digest payload.
	Digest map[string]int64

	// WireBytes is this frame's full encoded size (kind byte + length
	// prefix + payload + CRC trailer), filled in by WriteFrames and
	// ReadFrames. The per-frame-type byte metrics and the simulator's
	// journal-vs-registry invariant are both built on it: the stream size
	// is always streamHeaderSize (36) + Σ WireBytes.
	WireBytes int64
}

// FullFrame builds a full-snapshot frame for sn.
func FullFrame(sn core.Snapshot) Frame {
	return Frame{Kind: kindFull, Origin: sn.Origin, Version: sn.Steps, Scale: scaleOr1(sn.Scale), CS: sn.CS, Heavy: sn.Heavy}
}

func scaleOr1(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

// countingWriter tracks bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteFrames encodes the stream header and frames with no trace
// annotation, returning the bytes written. Each frame's payload is
// length-prefixed and trailed by its CRC32, so receivers can prove
// integrity before decoding a byte of it.
func WriteFrames(w io.Writer, frames []Frame) (int64, error) {
	return WriteFramesTraced(w, trace.SpanContext{}, frames)
}

// WriteFramesTraced is WriteFrames with the sender's span identity stamped
// into the stream header, linking this stream to the gossip round that
// produced it. An invalid (zero) sc writes an untraced header of the same
// size.
func WriteFramesTraced(w io.Writer, sc trace.SpanContext, frames []Frame) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	var hdr [streamHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint32(hdr[4:], wireVersion)
	if sc.Valid() {
		copy(hdr[8:24], sc.TraceID[:])
		copy(hdr[24:32], sc.SpanID[:])
	}
	binary.LittleEndian.PutUint32(hdr[32:], crc32.ChecksumIEEE(hdr[:32]))
	if _, err := bw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	var scratch bytes.Buffer
	for i := range frames {
		scratch.Reset()
		if err := writeFramePayload(&scratch, &frames[i]); err != nil {
			return cw.n, fmt.Errorf("cluster: frame %d (%q): %w", i, frames[i].Origin, err)
		}
		payload := scratch.Bytes()
		if len(payload) > maxFrameBytes {
			return cw.n, fmt.Errorf("cluster: frame %d (%q): payload %d exceeds %d bytes",
				i, frames[i].Origin, len(payload), maxFrameBytes)
		}
		if err := bw.WriteByte(frames[i].Kind); err != nil {
			return cw.n, err
		}
		writeUvarint(bw, uint64(len(payload)))
		if _, err := bw.Write(payload); err != nil {
			return cw.n, err
		}
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(crc[:]); err != nil {
			return cw.n, err
		}
		frames[i].WireBytes = frameWireSize(len(payload))
	}
	err := bw.Flush()
	return cw.n, err
}

// writeFramePayload encodes f's kind-specific fields into buf.
func writeFramePayload(buf *bytes.Buffer, f *Frame) error {
	bw := bufio.NewWriter(buf)
	if err := writeFrameFields(bw, buf, f); err != nil {
		return err
	}
	return bw.Flush()
}

// writeFrameFields writes through bw; the kindFull arm flushes and hands
// the sketch's own serializer the raw buffer, as it writes directly.
func writeFrameFields(bw *bufio.Writer, raw *bytes.Buffer, f *Frame) error {
	switch f.Kind {
	case kindDigest:
		writeUvarint(bw, uint64(len(f.Digest)))
		// Deterministic order is not required on the wire (receivers build a
		// map), but stable output helps tests and debugging.
		for _, id := range sortedKeys(f.Digest) {
			if err := writeString(bw, id); err != nil {
				return err
			}
			writeUvarint(bw, uint64(f.Digest[id]))
		}
		return nil
	case kindFull:
		if err := writeString(bw, f.Origin); err != nil {
			return err
		}
		writeUvarint(bw, uint64(f.Version))
		writeFloat(bw, scaleOr1(f.Scale))
		if err := writeWeighted(bw, f.Heavy); err != nil {
			return err
		}
		// The sketch's own serialization carries shape, seed, and bucket
		// validation; flush our buffer first since WriteTo writes directly.
		if err := bw.Flush(); err != nil {
			return err
		}
		_, err := f.CS.WriteTo(raw)
		return err
	case kindDelta:
		if err := writeString(bw, f.Origin); err != nil {
			return err
		}
		writeUvarint(bw, uint64(f.Version))
		writeUvarint(bw, uint64(f.Base))
		writeFloat(bw, scaleOr1(f.Scale))
		writeUvarint(bw, uint64(len(f.Changes)))
		prev := uint32(0)
		for i, ch := range f.Changes {
			if i > 0 && ch.Index <= prev {
				return fmt.Errorf("changes not strictly ascending at %d", i)
			}
			writeUvarint(bw, uint64(ch.Index-prev))
			writeFloat(bw, ch.Value)
			prev = ch.Index
		}
		writeUvarint(bw, uint64(len(f.HeavyRemoved)))
		for _, k := range f.HeavyRemoved {
			writeUvarint(bw, uint64(k))
		}
		return writeWeighted(bw, f.HeavyUpserts)
	default:
		return fmt.Errorf("unknown frame kind %d", f.Kind)
	}
}

// ReadFrames decodes a full frame stream, discarding the header's trace
// annotation. Every frame's CRC is verified before its payload is decoded,
// every count is bounded, and every float checked finite before it can
// reach model state — so a corrupt, truncated, or hostile stream yields an
// error, not an OOM or a poisoned sketch.
func ReadFrames(r io.Reader) ([]Frame, error) {
	frames, _, err := ReadFramesTraced(r)
	return frames, err
}

// ReadFramesTraced is ReadFrames plus the stream's trace annotation. The
// returned SpanContext is the sender's span identity, or the zero value
// for an untraced stream; it needs no validation beyond Valid() because an
// all-zero annotation is exactly the invalid SpanContext.
func ReadFramesTraced(r io.Reader) ([]Frame, trace.SpanContext, error) {
	br := bufio.NewReader(r)
	var hdr [streamHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, trace.SpanContext{}, fmt.Errorf("cluster: truncated stream header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != frameMagic {
		return nil, trace.SpanContext{}, fmt.Errorf("cluster: bad frame magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != wireVersion {
		return nil, trace.SpanContext{}, fmt.Errorf("cluster: unsupported wire version %d", v)
	}
	if got := binary.LittleEndian.Uint32(hdr[32:]); got != crc32.ChecksumIEEE(hdr[:32]) {
		return nil, trace.SpanContext{}, fmt.Errorf("cluster: stream header CRC mismatch")
	}
	var sc trace.SpanContext
	copy(sc.TraceID[:], hdr[8:24])
	copy(sc.SpanID[:], hdr[24:32])
	var frames []Frame
	for {
		kind, err := br.ReadByte()
		if err == io.EOF {
			return frames, sc, nil
		}
		if err != nil {
			return nil, trace.SpanContext{}, err
		}
		if kind != kindDigest && kind != kindFull && kind != kindDelta {
			return nil, trace.SpanContext{}, fmt.Errorf("cluster: frame %d: unknown frame kind %d", len(frames), kind)
		}
		payload, err := readPayload(br)
		if err != nil {
			return nil, trace.SpanContext{}, fmt.Errorf("cluster: frame %d: %w", len(frames), err)
		}
		f, err := decodeFramePayload(kind, payload)
		if err != nil {
			return nil, trace.SpanContext{}, fmt.Errorf("cluster: frame %d: %w", len(frames), err)
		}
		f.WireBytes = frameWireSize(len(payload))
		frames = append(frames, f)
	}
}

// readPayload reads one frame's length-prefixed payload and verifies its
// CRC. The declared length is bounded, and allocation grows by bounded
// chunks as bytes actually arrive, so a tiny hostile frame claiming a huge
// payload cannot demand the memory up front.
func readPayload(br *bufio.Reader) ([]byte, error) {
	n, err := readCount(br, maxFrameBytes)
	if err != nil {
		return nil, fmt.Errorf("payload length: %w", err)
	}
	payload := make([]byte, 0, upfrontCap(n))
	for len(payload) < n {
		chunk := n - len(payload)
		if chunk > maxUpfrontAlloc {
			chunk = maxUpfrontAlloc
		}
		start := len(payload)
		payload = append(payload, make([]byte, chunk)...)
		if _, err := io.ReadFull(br, payload[start:]); err != nil {
			return nil, fmt.Errorf("truncated payload: %w", err)
		}
	}
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, fmt.Errorf("truncated checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return nil, fmt.Errorf("checksum mismatch (payload %#x, trailer %#x)", got, want)
	}
	return payload, nil
}

// decodeFramePayload decodes one CRC-verified payload and requires it to
// be fully consumed — trailing bytes mark a malformed frame.
func decodeFramePayload(kind byte, payload []byte) (Frame, error) {
	pr := bytes.NewReader(payload)
	br := bufio.NewReader(pr)
	f, err := readFrame(br, kind)
	if err != nil {
		return f, err
	}
	if br.Buffered() > 0 || pr.Len() > 0 {
		return f, fmt.Errorf("%d trailing bytes after payload", br.Buffered()+pr.Len())
	}
	return f, nil
}

func readFrame(br *bufio.Reader, kind byte) (Frame, error) {
	f := Frame{Kind: kind}
	switch kind {
	case kindDigest:
		n, err := readCount(br, maxDigestEntries)
		if err != nil {
			return f, err
		}
		f.Digest = make(map[string]int64, upfrontCap(n))
		for i := 0; i < n; i++ {
			id, err := readString(br)
			if err != nil {
				return f, err
			}
			v, err := readUvarint(br)
			if err != nil {
				return f, err
			}
			f.Digest[id] = int64(v)
		}
		return f, nil
	case kindFull:
		var err error
		if f.Origin, err = readString(br); err != nil {
			return f, err
		}
		v, err := readUvarint(br)
		if err != nil {
			return f, err
		}
		f.Version = int64(v)
		if f.Scale, err = readScale(br); err != nil {
			return f, err
		}
		if f.Heavy, err = readWeighted(br); err != nil {
			return f, err
		}
		if f.CS, err = sketch.ReadCountSketch(br); err != nil {
			return f, err
		}
		return f, nil
	case kindDelta:
		var err error
		if f.Origin, err = readString(br); err != nil {
			return f, err
		}
		v, err := readUvarint(br)
		if err != nil {
			return f, err
		}
		f.Version = int64(v)
		b, err := readUvarint(br)
		if err != nil {
			return f, err
		}
		f.Base = int64(b)
		if f.Scale, err = readScale(br); err != nil {
			return f, err
		}
		n, err := readCount(br, maxChangeEntries)
		if err != nil {
			return f, err
		}
		f.Changes = make([]sketch.BucketChange, 0, upfrontCap(n))
		prev := uint64(0)
		for i := 0; i < n; i++ {
			gap, err := readUvarint(br)
			if err != nil {
				return f, err
			}
			idx := prev + gap
			if i > 0 && gap == 0 {
				return f, fmt.Errorf("non-ascending change index at %d", i)
			}
			if idx > math.MaxUint32 {
				return f, fmt.Errorf("change index %d overflows", idx)
			}
			val, err := readFloat(br)
			if err != nil {
				return f, err
			}
			f.Changes = append(f.Changes, sketch.BucketChange{Index: uint32(idx), Value: val})
			prev = idx
		}
		nr, err := readCount(br, maxHeavyEntries)
		if err != nil {
			return f, err
		}
		f.HeavyRemoved = make([]uint32, 0, upfrontCap(nr))
		for i := 0; i < nr; i++ {
			k, err := readUvarint(br)
			if err != nil {
				return f, err
			}
			if k > math.MaxUint32 {
				return f, fmt.Errorf("removed key %d overflows", k)
			}
			f.HeavyRemoved = append(f.HeavyRemoved, uint32(k))
		}
		if f.HeavyUpserts, err = readWeighted(br); err != nil {
			return f, err
		}
		return f, nil
	default:
		return f, fmt.Errorf("unknown frame kind %d", kind)
	}
}

// frameWireSize is the encoded size of a frame with the given payload
// length: kind byte, uvarint length prefix, payload, CRC32 trailer.
func frameWireSize(payloadLen int) int64 {
	var buf [binary.MaxVarintLen64]byte
	return int64(1 + binary.PutUvarint(buf[:], uint64(payloadLen)) + payloadLen + 4)
}

// ---- primitive encoders ----

// The primitive writers encode straight into bw's free buffer space
// (AvailableBuffer) and the float reader decodes from the buffered bytes
// (Peek), so no per-value array is handed to an interface call and moved
// to the heap: a frame costs the same few allocations whatever it holds.

func writeUvarint(bw *bufio.Writer, v uint64) {
	reserve(bw, binary.MaxVarintLen64)
	_, _ = bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), v))
}

// reserve flushes bw when fewer than n bytes of its buffer are free, so
// that appending n bytes to AvailableBuffer cannot reallocate. A failed
// flush sticks in bw: every later write returns it, and so does the
// caller's final Flush.
func reserve(bw *bufio.Writer, n int) {
	if bw.Available() < n {
		_ = bw.Flush()
	}
}

func readUvarint(br *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(br)
}

func readCount(br *bufio.Reader, limit int) (int, error) {
	v, err := readUvarint(br)
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, fmt.Errorf("count %d exceeds limit %d", v, limit)
	}
	return int(v), nil
}

func writeString(bw *bufio.Writer, s string) error {
	if len(s) == 0 || len(s) > maxOriginLen {
		return fmt.Errorf("origin length %d out of range [1,%d]", len(s), maxOriginLen)
	}
	writeUvarint(bw, uint64(len(s)))
	_, err := bw.WriteString(s)
	return err
}

func readString(br *bufio.Reader) (string, error) {
	n, err := readCount(br, maxOriginLen)
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", fmt.Errorf("empty origin")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeFloat(bw *bufio.Writer, v float64) {
	reserve(bw, 8)
	_, _ = bw.Write(binary.LittleEndian.AppendUint64(bw.AvailableBuffer(), math.Float64bits(v)))
}

// readFloat decodes one float64 and rejects NaN/±Inf centrally: no frame
// field — weight, scale, or delta value — legitimately carries a
// non-finite float, and a NaN smuggled past here would poison sketch state
// while comparing false against every later bound.
//
// A short read fails like io.ReadFull: io.EOF when no byte was left,
// io.ErrUnexpectedEOF when some were.
func readFloat(br *bufio.Reader) (float64, error) {
	b, err := br.Peek(8)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(b))
	_, _ = br.Discard(8) // cannot fail: Peek just buffered these 8 bytes
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite float on the wire (%g)", v)
	}
	return v, nil
}

// readScale reads and validates a model scale: real learners keep it in
// (0, 1] via renormalization, so anything non-positive marks a corrupt or
// hostile frame (readFloat already rejects non-finite values).
func readScale(br *bufio.Reader) (float64, error) {
	s, err := readFloat(br)
	if err != nil {
		return 0, err
	}
	if s <= 0 {
		return 0, fmt.Errorf("corrupt model scale %g", s)
	}
	return s, nil
}

func writeWeighted(bw *bufio.Writer, ws []stream.Weighted) error {
	writeUvarint(bw, uint64(len(ws)))
	for _, w := range ws {
		writeUvarint(bw, uint64(w.Index))
		writeFloat(bw, w.Weight)
	}
	return nil
}

func readWeighted(br *bufio.Reader) ([]stream.Weighted, error) {
	n, err := readCount(br, maxHeavyEntries)
	if err != nil {
		return nil, err
	}
	out := make([]stream.Weighted, 0, upfrontCap(n))
	for i := 0; i < n; i++ {
		k, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		if k > math.MaxUint32 {
			return nil, fmt.Errorf("weighted key %d overflows", k)
		}
		// readFloat rejects non-finite weights at the decode layer.
		w, err := readFloat(br)
		if err != nil {
			return nil, err
		}
		out = append(out, stream.Weighted{Index: uint32(k), Weight: w})
	}
	return out, nil
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
