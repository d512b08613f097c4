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
	"math/bits"
	"slices"
	"sort"
	"sync"

	"wmsketch/internal/core"
	"wmsketch/internal/frame"
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
//	        tail Count-Sketch in its own (hardened) serialization.
//	delta:  only what changed between the receiver's acked version (base)
//	        and the sender's current version: changed buckets as
//	        gap-encoded flat indices with their new values, plus the heavy
//	        list diff (removed keys + upserted entries). Values are
//	        absolute, not additive, so replay is harmless.
const (
	frameMagic = 0x574d4346 // "WMCF"
	// v2 added per-frame length + CRC32; v3 the header trace annotation;
	// v4 keeps v3's layout, but a snapshot's sketch is the sender's tail,
	// without its active set written back.
	wireVersion = 4
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
	// hold: a digest has one entry per cluster member, a heavy list at most
	// a model's heap size (2^16, mirroring core's maxHeapSize), and a
	// change list at most a sketch's buckets.
	maxDigestEntries = 1 << 16
	maxHeavyEntries  = 1 << 16
	maxChangeEntries = sketch.MaxBuckets
)

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

	// stale marks a stub Node.ReadFramesTraced read only as far as its
	// origin and version, which the node already held: it carries no
	// lists and no sketch. ApplyFramesCtx counts it as stale on any node,
	// and the encoder refuses it.
	stale bool
}

// FullFrame builds a full-snapshot frame for sn, with a copy of its heavy
// list in the weight order frames carry.
func FullFrame(sn core.Snapshot) Frame {
	return Frame{Kind: kindFull, Origin: sn.Origin, Version: sn.Steps, Scale: scaleOr1(sn.Scale), CS: sn.CS, Heavy: weightOrder(sn.Heavy)}
}

func scaleOr1(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
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
// size. The header and each frame go out in one Write apiece, from one
// pooled buffer sized for the largest frame.
func WriteFramesTraced(w io.Writer, sc trace.SpanContext, frames []Frame) (int64, error) {
	largest := streamHeaderSize
	for i := range frames {
		largest = max(largest, frameBound(&frames[i]))
	}
	bp := writeBufPool.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= maxPooledBuffer {
			writeBufPool.Put(bp)
		}
	}()
	buf := appendHeader(slices.Grow((*bp)[:0], largest), sc)
	*bp = buf
	m, err := w.Write(buf)
	n := int64(m)
	if err != nil {
		return n, err
	}
	for i := range frames {
		if buf, err = appendFrame(buf[:0], i, &frames[i]); err != nil {
			return n, err
		}
		m, err = w.Write(buf)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// writeBufPool holds WriteFramesTraced's encode buffers.
var writeBufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuffer caps the buffers the codec's pools keep between streams,
// so one large full frame does not pin its size in a pool.
const maxPooledBuffer = 1 << 20

// encodeStream returns the stream WriteFramesTraced writes, encoded into
// one buffer sized from the frames' payload bounds.
func encodeStream(sc trace.SpanContext, frames []Frame) ([]byte, error) {
	size := streamHeaderSize
	for i := range frames {
		size += frameBound(&frames[i])
	}
	buf := appendHeader(make([]byte, 0, size), sc)
	var err error
	for i := range frames {
		if buf, err = appendFrame(buf, i, &frames[i]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// appendHeader appends the stream header carrying sc to dst.
func appendHeader(dst []byte, sc trace.SpanContext) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = binary.LittleEndian.AppendUint32(dst, wireVersion)
	var ids [24]byte
	if sc.Valid() {
		copy(ids[:16], sc.TraceID[:])
		copy(ids[16:], sc.SpanID[:])
	}
	dst = append(dst, ids[:]...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// frameRoom is the room left ahead of a payload for the kind byte and the
// longest length prefix.
const frameRoom = 1 + binary.MaxVarintLen64

// frameBound bounds f's encoding from above: room for the kind and length
// prefix, the payload, and its CRC trailer.
func frameBound(f *Frame) int { return frameRoom + payloadBound(f) + 4 }

// appendFrame appends frame i of a stream, f, to dst: the kind byte, the
// payload length, the payload and its CRC. It sets f.WireBytes.
func appendFrame(dst []byte, i int, f *Frame) ([]byte, error) {
	start := len(dst)
	// The payload is encoded after room for the kind and the longest length
	// prefix; the prefix then goes right before it and the payload moves
	// up to meet it.
	buf, err := appendFramePayload(slices.Grow(dst, frameBound(f))[:start+frameRoom], f)
	if err != nil {
		return dst, fmt.Errorf("cluster: frame %d (%q): %w", i, f.Origin, err)
	}
	n := len(buf) - start - frameRoom
	if n > maxFrameBytes {
		return dst, fmt.Errorf("cluster: frame %d (%q): payload %d exceeds %d bytes", i, f.Origin, n, maxFrameBytes)
	}
	head := binary.AppendUvarint(append(buf[:start], f.Kind), uint64(n))
	buf = append(head, buf[start+frameRoom:]...)
	f.WireBytes = frameWireSize(n)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(head):])), nil
}

// payloadBound bounds f's payload from above, so the encoder sizes its
// buffer once per frame rather than growing it with the entries: at most
// an origin, three uvarints (version, base and a digest's count), the
// scale, the lists at their exact size, and the sketch.
func payloadBound(f *Frame) int {
	const origin = binary.MaxVarintLen64 + maxOriginLen // length prefix and bytes
	n := origin + 3*binary.MaxVarintLen64 + 8 +
		weightedSize(f.Heavy) + deltaListsSize(f.Changes, f.HeavyRemoved, f.HeavyUpserts) +
		(origin+binary.MaxVarintLen64)*len(f.Digest)
	if f.CS != nil {
		n += f.CS.EncodedSize()
	}
	return n
}

// deltaListsSize is the exact size of appendDeltaLists' encoding of the
// three lists.
func deltaListsSize(changes []sketch.BucketChange, keys []uint32, ws []stream.Weighted) int {
	n := uvarintLen(uint32(len(changes))) + uvarintLen(uint32(len(keys))) + weightedSize(ws)
	prev := uint32(0)
	for _, ch := range changes {
		n += uvarintLen(ch.Index-prev) + 8
		prev = ch.Index
	}
	for _, k := range keys {
		n += uvarintLen(k)
	}
	return n
}

// weightedSize is the encoded size of a count-prefixed (key, weight) list.
func weightedSize(ws []stream.Weighted) int {
	n := uvarintLen(uint32(len(ws))) + 8*len(ws)
	for _, w := range ws {
		n += uvarintLen(w.Index)
	}
	return n
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint32) int { return (bits.Len32(v|1) + 6) / 7 }

// appendFramePayload appends f's kind-specific fields to dst.
func appendFramePayload(dst []byte, f *Frame) ([]byte, error) {
	if f.stale {
		return dst, fmt.Errorf("a stale stub of version %d was not decoded and cannot be encoded", f.Version)
	}
	var err error
	switch f.Kind {
	case kindDigest:
		dst = binary.AppendUvarint(dst, uint64(len(f.Digest)))
		// Deterministic order is not required on the wire (receivers build a
		// map), but stable output helps tests and debugging.
		for _, id := range sortedKeys(f.Digest) {
			if dst, err = appendOrigin(dst, id); err != nil {
				return dst, err
			}
			dst = binary.AppendUvarint(dst, uint64(f.Digest[id]))
		}
		return dst, nil
	case kindFull:
		if dst, err = appendOrigin(dst, f.Origin); err != nil {
			return dst, err
		}
		dst = binary.AppendUvarint(dst, uint64(f.Version))
		dst = appendFloat(dst, scaleOr1(f.Scale))
		// The sketch's own serialization carries shape, seed, and buckets.
		return f.CS.AppendBinary(appendWeighted(dst, f.Heavy))
	case kindDelta:
		if dst, err = appendOrigin(dst, f.Origin); err != nil {
			return dst, err
		}
		dst = binary.AppendUvarint(dst, uint64(f.Version))
		dst = binary.AppendUvarint(dst, uint64(f.Base))
		dst = appendFloat(dst, scaleOr1(f.Scale))
		return appendDeltaLists(dst, f.Changes, f.HeavyRemoved, f.HeavyUpserts)
	default:
		return dst, fmt.Errorf("unknown frame kind %d", f.Kind)
	}
}

// appendDeltaLists appends the three lists of a delta: bucket changes,
// count-prefixed, each index as a uvarint gap from the one before and
// each value as raw float64 bits; keys, count-prefixed uvarints; and
// (key, weight) entries, count-prefixed. A delta frame carries its
// changes, removed keys and upserts so, and a node packs each reverse
// delta it keeps so (originState.packReverse). The changes must name each
// bucket once, in ascending order.
func appendDeltaLists(dst []byte, changes []sketch.BucketChange, keys []uint32, ws []stream.Weighted) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(changes)))
	prev := uint32(0)
	for i, ch := range changes {
		if i > 0 && ch.Index <= prev {
			return dst, fmt.Errorf("changes not strictly ascending at %d", i)
		}
		dst = binary.AppendUvarint(dst, uint64(ch.Index-prev))
		dst = appendFloat(dst, ch.Value)
		prev = ch.Index
	}
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(k))
	}
	return appendWeighted(dst, ws), nil
}

// ReadFrames decodes a full frame stream, discarding the header's trace
// annotation. Every frame's CRC is verified before its payload is decoded,
// and the payload is decoded under internal/frame's rules (bounded counts,
// chunked allocation, exact consumption, finite floats) — so a corrupt,
// truncated, or hostile stream yields an error, not an OOM or a poisoned
// sketch.
func ReadFrames(r io.Reader) ([]Frame, error) {
	frames, _, err := ReadFramesTraced(r)
	return frames, err
}

// ReadFramesTraced is ReadFrames plus the stream's trace annotation. The
// returned SpanContext is the sender's span identity, or the zero value
// for an untraced stream; it needs no validation beyond Valid() because an
// all-zero annotation is exactly the invalid SpanContext.
func ReadFramesTraced(r io.Reader) ([]Frame, trace.SpanContext, error) {
	return readFrames(r, nil)
}

// readFrames decodes a stream. Given a node, a full frame's sketch must
// have the node's geometry, checked from its header before any bucket is
// allocated, and shares its hash family; and a full or delta frame whose
// version the node holds reads as a stale stub (staleFrame), against the
// versions the node held when the stream's first such frame arrived.
// Without a node, each sketch builds its own hash family and every frame
// decodes whole.
func readFrames(r io.Reader, n *Node) ([]Frame, trace.SpanContext, error) {
	var geo *sketch.Geometry
	if n != nil {
		geo = n.geo
	}
	sr := readerPool.Get().(*streamReader)
	sr.br.Reset(r)
	defer sr.release()
	br := sr.br
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
	var held map[string]int64 // the node's versions, read at the first state frame
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
		size, err := frame.ReadCount(br, maxFrameBytes)
		if err != nil {
			return nil, trace.SpanContext{}, fmt.Errorf("cluster: frame %d: payload length: %w", len(frames), err)
		}
		// The frame CRC covers the payload alone.
		if sr.buf, err = frame.ReadPayload(br, sr.buf, size, 0); err != nil {
			return nil, trace.SpanContext{}, fmt.Errorf("cluster: frame %d: %w", len(frames), err)
		}
		if n != nil && kind != kindDigest && held == nil {
			held = n.heldVersions(sr.held)
			sr.held = held
		}
		f, stale := staleFrame(kind, sr.buf, held)
		if !stale {
			if f, err = decodeFrame(kind, frame.NewCursor(sr.buf), geo); err != nil {
				return nil, trace.SpanContext{}, fmt.Errorf("cluster: frame %d: %w", len(frames), err)
			}
		}
		f.WireBytes = frameWireSize(size)
		frames = append(frames, f)
	}
}

// staleFrame returns the stale stub of a CRC-checked full or delta payload
// whose version is at or below the one held names for its origin: its
// kind, origin and version, and nothing else decoded. It reports false for
// any other payload, which decodes whole, and fails there if malformed.
func staleFrame(kind byte, payload []byte, held map[string]int64) (Frame, bool) {
	if kind == kindDigest || held == nil {
		return Frame{}, false
	}
	c := frame.NewCursor(payload)
	n, err := c.Count(maxOriginLen)
	if err != nil {
		return Frame{}, false
	}
	id, err := c.Bytes(n)
	if err != nil {
		return Frame{}, false
	}
	v, err := c.Uvarint()
	if err != nil {
		return Frame{}, false
	}
	have, ok := held[string(id)]
	if !ok || int64(v) > have {
		return Frame{}, false
	}
	return Frame{Kind: kind, Origin: string(id), Version: int64(v), stale: true}, true
}

// streamReader is ReadFramesTraced's reusable working memory: the buffered
// reader, the payload buffer and a node's held versions. Decoded frames
// copy what they keep out of the payload, so one buffer serves every frame
// of every stream.
type streamReader struct {
	br   *bufio.Reader
	buf  []byte
	held map[string]int64
}

var readerPool = sync.Pool{New: func() any { return &streamReader{br: bufio.NewReader(nil)} }}

func (sr *streamReader) release() {
	sr.br.Reset(nil)
	if cap(sr.buf) > maxPooledBuffer {
		sr.buf = nil
	}
	clear(sr.held)
	readerPool.Put(sr)
}

// decodeFrame decodes one CRC-verified payload of a known kind, which it
// must consume exactly, reading a full frame's sketch on geo when it is
// not nil.
func decodeFrame(kind byte, c *frame.Cursor, geo *sketch.Geometry) (Frame, error) {
	f := Frame{Kind: kind}
	err := decodeFields(c, &f, geo)
	if err == nil {
		err = c.Done()
	}
	return f, err
}

func decodeFields(c *frame.Cursor, f *Frame, geo *sketch.Geometry) error {
	if f.Kind == kindDigest {
		n, err := c.Count(maxDigestEntries)
		if err != nil {
			return err
		}
		f.Digest = make(map[string]int64, frame.UpfrontCap(n))
		for i := 0; i < n; i++ {
			id, err := decodeOrigin(c)
			if err != nil {
				return err
			}
			v, err := c.Uvarint()
			if err != nil {
				return err
			}
			f.Digest[id] = int64(v)
		}
		return nil
	}
	// Full and delta frames share origin, version, (delta) base and scale.
	// Real learners keep the scale in (0, 1] via renormalization, so a
	// non-positive one marks a corrupt or hostile frame.
	var err error
	if f.Origin, err = decodeOrigin(c); err != nil {
		return err
	}
	v, err := c.Uvarint()
	if err != nil {
		return err
	}
	f.Version = int64(v)
	if f.Kind == kindDelta {
		if v, err = c.Uvarint(); err != nil {
			return err
		}
		f.Base = int64(v)
	}
	if f.Scale, err = c.F64(); err != nil {
		return err
	}
	if f.Scale <= 0 {
		return fmt.Errorf("corrupt model scale %g", f.Scale)
	}
	if f.Kind == kindFull {
		if f.Heavy, err = decodeWeighted(c, nil); err != nil {
			return err
		}
		// The sketch travels in its own checkpoint serialization.
		rest := bytes.NewReader(c.Rest())
		if geo != nil {
			f.CS, err = geo.Read(rest)
		} else {
			f.CS, err = sketch.ReadCountSketch(rest)
		}
		if err != nil {
			return err
		}
		c.Skip(c.Len() - rest.Len())
		return nil
	}
	f.Changes, f.HeavyRemoved, f.HeavyUpserts, err = decodeDeltaLists(c, nil, nil, nil)
	return err
}

// decodeDeltaLists decodes appendDeltaLists' three lists, appending them
// to the caller's changes, keys and ws. A list's count is checked against
// the bytes left before the list is sized from it, so what it allocates is
// bounded by the payload, which has arrived whole.
//
// Each list decodes in one loop over the payload's bytes, its uvarints
// and floats read inline rather than through a call per value: a node
// decodes every delta frame it adopts this way, and the reverse deltas it
// composes or rebuilds from.
func decodeDeltaLists(c *frame.Cursor, changes []sketch.BucketChange, keys []uint32, ws []stream.Weighted) ([]sketch.BucketChange, []uint32, []stream.Weighted, error) {
	changes, err := decodeChanges(c, changes)
	if err != nil {
		return changes, keys, ws, err
	}
	keys, ws, err = decodeHeavyLists(c, keys, ws)
	return changes, keys, ws, err
}

// decodeChanges decodes a count-prefixed change list, appending it to
// dst. Indices must ascend strictly: a gap is positive after the first
// change, and bounded before it is added so the index can neither
// overflow uint32 nor wrap uint64.
func decodeChanges(c *frame.Cursor, dst []sketch.BucketChange) ([]sketch.BucketChange, error) {
	n, err := c.Count(maxChangeEntries)
	if err != nil {
		return dst, err
	}
	b := c.Rest()
	if n > len(b)/9 { // a change takes at least 9 bytes
		return dst, fmt.Errorf("%d changes in %d bytes", n, len(b))
	}
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	off, prev := 0, uint64(0)
	for i := range n {
		// One byte holds most gaps: it decodes without binary.Uvarint.
		gap, m := uint64(0), 0
		if off < len(b) && b[off] < 0x80 {
			gap, m = uint64(b[off]), 1
		} else if gap, m = binary.Uvarint(b[off:]); m <= 0 {
			return dst, fmt.Errorf("change %d: bad index gap", i)
		}
		if i > 0 && gap == 0 {
			return dst, fmt.Errorf("non-ascending change index at %d", i)
		}
		if gap > math.MaxUint32-prev {
			return dst, fmt.Errorf("change %d: gap %d from index %d overflows uint32", i, gap, prev)
		}
		off += m
		val, ok := floatAt(b, off)
		if !ok {
			return dst, fmt.Errorf("change %d: %w", i, floatError(b, off))
		}
		off += 8
		prev += gap
		dst[at+i] = sketch.BucketChange{Index: uint32(prev), Value: val}
	}
	c.Skip(off)
	return dst, nil
}

// decodeHeavyLists decodes the two lists after a delta's changes, a
// count-prefixed key list and a (key, weight) list, appending them to keys
// and ws.
func decodeHeavyLists(c *frame.Cursor, keys []uint32, ws []stream.Weighted) ([]uint32, []stream.Weighted, error) {
	n, err := c.Count(maxHeavyEntries)
	if err != nil {
		return keys, ws, err
	}
	b, off := c.Rest(), 0
	if n > len(b) {
		return keys, ws, fmt.Errorf("%d keys in %d bytes", n, len(b))
	}
	keys = slices.Grow(keys, n)
	for i := 0; i < n; i++ {
		k, m := binary.Uvarint(b[off:])
		if m <= 0 || k > math.MaxUint32 {
			return keys, ws, fmt.Errorf("key %d: bad or overlong index", i)
		}
		off += m
		keys = append(keys, uint32(k))
	}
	c.Skip(off)
	ws, err = decodeWeighted(c, ws)
	return keys, ws, err
}

// floatAt reads the little-endian float64 at b[off:]. It reports false
// for a truncated or non-finite one, which floatError describes.
func floatAt(b []byte, off int) (float64, bool) {
	if len(b)-off < 8 {
		return 0, false
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
	return v, frame.Finite(v)
}

// floatError is the error for a float floatAt refused.
func floatError(b []byte, off int) error {
	if len(b)-off < 8 {
		return fmt.Errorf("truncated float")
	}
	return frame.NonFinite(math.Float64frombits(binary.LittleEndian.Uint64(b[off:])))
}

// decodeOrigin decodes a length-prefixed origin id of 1 to maxOriginLen
// bytes.
func decodeOrigin(c *frame.Cursor) (string, error) {
	n, err := c.Count(maxOriginLen)
	if err == nil && n == 0 {
		err = fmt.Errorf("empty origin")
	}
	if err != nil {
		return "", err
	}
	b, err := c.Bytes(n)
	return string(b), err
}

// decodeWeighted decodes a count-prefixed (key, weight) list, appending
// it to dst, in one loop as decodeChanges does.
func decodeWeighted(c *frame.Cursor, dst []stream.Weighted) ([]stream.Weighted, error) {
	n, err := c.Count(maxHeavyEntries)
	if err != nil {
		return dst, err
	}
	b, off := c.Rest(), 0
	if n > len(b)/9 { // an entry takes at least 9 bytes
		return dst, fmt.Errorf("%d entries in %d bytes", n, len(b))
	}
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	for i := range n {
		k, m := binary.Uvarint(b[off:])
		if m <= 0 || k > math.MaxUint32 {
			return dst, fmt.Errorf("entry %d: bad or overlong key", i)
		}
		off += m
		w, ok := floatAt(b, off)
		if !ok {
			return dst, fmt.Errorf("entry %d: %w", i, floatError(b, off))
		}
		off += 8
		dst[at+i] = stream.Weighted{Index: uint32(k), Weight: w}
	}
	c.Skip(off)
	return dst, nil
}

// frameWireSize is the encoded size of a frame with the given payload
// length: kind byte, uvarint length prefix, payload, CRC32 trailer.
func frameWireSize(payloadLen int) int64 {
	var buf [binary.MaxVarintLen64]byte
	return int64(1 + binary.PutUvarint(buf[:], uint64(payloadLen)) + payloadLen + 4)
}

func appendOrigin(dst []byte, s string) ([]byte, error) {
	if len(s) == 0 || len(s) > maxOriginLen {
		return dst, fmt.Errorf("origin length %d out of range [1,%d]", len(s), maxOriginLen)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...), nil
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendWeighted(dst []byte, ws []stream.Weighted) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ws)))
	for _, w := range ws {
		dst = binary.AppendUvarint(dst, uint64(w.Index))
		dst = appendFloat(dst, w.Weight)
	}
	return dst
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
