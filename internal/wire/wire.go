// Package wire is the binary hot protocol ("wmwire") for the serving
// plane's high-rate endpoints: update, predict, and estimate. The HTTP/JSON
// API (SERVING.md) stays the compatibility surface; this package exists
// because the JSON path tops out more than an order of magnitude below the
// bare learner (BENCH_serve.json vs BENCH_throughput.json) — the paper's
// premise is that the sketch is cheap enough to train inline with the
// stream, so the protocol must not be the bottleneck.
//
// The format shares the gossip wire's decode rules, which live once in
// internal/frame: length-prefixed frames, a CRC32 over every frame,
// bounded counts on every decoded length, chunked allocation so a tiny
// hostile frame cannot demand gigabytes up front, exact consumption of
// every payload, and central rejection of non-finite floats before they
// can reach model state. See SERVING.md "Binary protocol" for the layout
// diagram and versioning rules.
//
// # Connection layout
//
// A connection opens with an 8-byte client preamble (magic "WMBP" +
// version, both little-endian uint32); the server answers with the same 8
// bytes, and frames flow after that. Mismatched magic or version fails the
// handshake before any frame is parsed — version negotiation is
// fail-closed, never silent.
//
// # Frame layout
//
// Every frame, request or response, is
//
//	kind    byte    request: op code; response: status code
//	flags   byte    must be zero in version 1
//	tag     uint32  request id, echoed verbatim in the response
//	length  uint32  payload bytes (bounded by MaxPayloadBytes)
//	payload length bytes, kind-specific (codec.go)
//	crc32   uint32  IEEE, over header AND payload
//
// The CRC covers the header too (unlike the gossip wire, which covers the
// payload only): a flipped bit in the length field would desynchronize the
// whole connection, so header integrity matters as much as payload
// integrity here.
//
// # Tags and pipelining
//
// Clients may keep many request frames in flight on one connection.
// Responses carry the request's tag and MAY complete out of order; a
// client matches responses to requests by tag alone, never by arrival
// order. Tag values are entirely client-chosen; the server never
// interprets them.
//
// # Error model
//
// Two failure tiers, mirroring how HTTP splits transport from application
// errors:
//
//   - Frame-level violations — bad handshake, unknown op, nonzero flags,
//     oversized length, CRC mismatch, truncated frame — are connection
//     fatal. The peer is desynchronized or hostile; the connection closes.
//   - Payload-level violations — bad label, non-finite value, empty batch,
//     oversized count, trailing bytes — map to a StatusBadRequest response
//     (the JSON path's 400) and the connection continues.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"wmsketch/internal/frame"
)

// Handshake constants.
const (
	// Magic is "WMBP" (Weight-Median Binary Protocol), little-endian.
	Magic uint32 = 0x50424d57
	// Version is the protocol version. Receivers reject any other value:
	// format evolution bumps the version and ships a new decoder, it never
	// reinterprets existing fields.
	Version uint32 = 1
	// HandshakeSize is the preamble each side sends: magic + version.
	HandshakeSize = 8
)

// Request op codes (the frame kind byte on the request direction).
const (
	OpUpdate   = byte(1) // train on a batch of examples
	OpPredict  = byte(2) // score one feature vector
	OpEstimate = byte(3) // estimate weights for a batch of indices
	OpPing     = byte(4) // empty round-trip (handshake probe, liveness)
)

// Response status codes (the frame kind byte on the response direction).
const (
	StatusOK         = byte(0) // payload is the op-specific result
	StatusBadRequest = byte(1) // payload is an error message (client fault)
	StatusError      = byte(2) // payload is an error message (server fault)
)

// Sizing bounds. Every decoded count is validated against one of these
// before it sizes an allocation or a slice — the decode-bounds contract
// wmlint enforces mechanically.
const (
	// headerSize is kind + flags + tag + length.
	headerSize = 1 + 1 + 4 + 4
	// MaxPayloadBytes bounds one frame's declared payload, matching the
	// JSON path's request cap (server.maxRequestBytes).
	MaxPayloadBytes = 8 << 20
	// MaxBatchExamples bounds one update frame's example count.
	MaxBatchExamples = 1 << 16
	// MaxVectorNNZ bounds one vector's feature count, matching the libsvm
	// parser's stream.MaxLibSVMFeatures.
	MaxVectorNNZ = 1 << 20
	// MaxEstimateIndices bounds one estimate frame's index count, matching
	// the JSON path's maxEstimateBatch.
	MaxEstimateIndices = 1 << 16
	// MaxErrorBytes bounds an error-response message.
	MaxErrorBytes = 1 << 10
)

// validOp reports whether b is a known request op.
func validOp(b byte) bool { return b >= OpUpdate && b <= OpPing }

// validStatus reports whether b is a known response status.
func validStatus(b byte) bool { return b <= StatusError }

// OpName returns the human-readable name of an op code, used as the metric
// and span label for the binary dispatch table.
func OpName(op byte) string {
	switch op {
	case OpUpdate:
		return "update"
	case OpPredict:
		return "predict"
	case OpEstimate:
		return "estimate"
	case OpPing:
		return "ping"
	}
	return fmt.Sprintf("op%d", op)
}

// WriteHandshake sends the 8-byte preamble.
func WriteHandshake(w io.Writer) error {
	var b [HandshakeSize]byte
	binary.LittleEndian.PutUint32(b[0:], Magic)
	binary.LittleEndian.PutUint32(b[4:], Version)
	_, err := w.Write(b[:])
	return err
}

// ReadHandshake reads and validates the peer's preamble.
func ReadHandshake(r io.Reader) error {
	var b [HandshakeSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("wire: truncated handshake: %w", err)
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != Magic {
		return fmt.Errorf("wire: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != Version {
		return fmt.Errorf("wire: unsupported protocol version %d", v)
	}
	return nil
}

// RequestFrame is one decoded request. Payload aliases the buffer passed
// to ReadRequestFrame; it is valid until that buffer is reused.
type RequestFrame struct {
	Op      byte
	Tag     uint32
	Payload []byte
}

// ResponseFrame is one decoded response. Payload aliases the buffer passed
// to ReadResponseFrame; it is valid until that buffer is reused.
type ResponseFrame struct {
	Status  byte
	Tag     uint32
	Payload []byte
}

// WriteFrame encodes one frame — kind is an op on the request direction, a
// status on the response direction — and returns the bytes written. The
// payload must not exceed MaxPayloadBytes.
func WriteFrame(w io.Writer, kind byte, tag uint32, payload []byte) (int, error) {
	if len(payload) > MaxPayloadBytes {
		return 0, fmt.Errorf("wire: payload %d exceeds %d bytes", len(payload), MaxPayloadBytes)
	}
	var hdr [headerSize]byte
	hdr[0] = kind
	hdr[1] = 0 // flags, reserved
	binary.LittleEndian.PutUint32(hdr[2:], tag)
	binary.LittleEndian.PutUint32(hdr[6:], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	n := 0
	for _, chunk := range [][]byte{hdr[:], payload} {
		m, err := w.Write(chunk)
		n += m
		if err != nil {
			return n, err
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	m, err := w.Write(trailer[:])
	return n + m, err
}

// FrameWireSize is the encoded size of a frame carrying payloadLen bytes.
func FrameWireSize(payloadLen int) int { return headerSize + payloadLen + 4 }

// payloadLength extracts and bounds the header's declared payload length;
// validating at the extraction site is the decode-bounds idiom, so callers
// only ever see an already-capped count.
func payloadLength(hdr []byte) (int, error) {
	n := int(binary.LittleEndian.Uint32(hdr[6:]))
	if n > MaxPayloadBytes {
		return 0, fmt.Errorf("wire: declared payload %d exceeds %d bytes", n, MaxPayloadBytes)
	}
	return n, nil
}

// readFrame reads one frame into buf (reusing its capacity) and returns
// the kind, tag, payload, and the possibly-grown buffer. Errors here are
// connection fatal by contract: the stream can no longer be trusted to be
// frame aligned.
func readFrame(r io.Reader, buf []byte, valid func(byte) bool, dir string) (kind byte, tag uint32, payload, out []byte, err error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, buf, err // io.EOF between frames is a clean close
	}
	kind = hdr[0]
	if !valid(kind) {
		return 0, 0, nil, buf, fmt.Errorf("wire: unknown %s kind %d", dir, kind)
	}
	if hdr[1] != 0 {
		return 0, 0, nil, buf, fmt.Errorf("wire: nonzero flags %#x (version 1 reserves them)", hdr[1])
	}
	tag = binary.LittleEndian.Uint32(hdr[2:])
	n, err := payloadLength(hdr[:])
	if err != nil {
		return 0, 0, nil, buf, err
	}
	// The CRC covers the header too, so the header's checksum seeds it.
	payload, err = frame.ReadPayload(r, buf, n, crc32.ChecksumIEEE(hdr[:]))
	if err != nil {
		return 0, 0, nil, payload, fmt.Errorf("wire: %w", err)
	}
	return kind, tag, payload, payload, nil
}

// ReadRequestFrame reads one request frame, reusing buf's capacity for the
// payload. It returns the frame and the (possibly grown) buffer for the
// caller's pool. An io.EOF before the first header byte is a clean
// connection close and is returned as io.EOF unwrapped.
func ReadRequestFrame(r io.Reader, buf []byte) (RequestFrame, []byte, error) {
	op, tag, payload, out, err := readFrame(r, buf, validOp, "op")
	if err != nil {
		return RequestFrame{}, out, err
	}
	return RequestFrame{Op: op, Tag: tag, Payload: payload}, out, nil
}

// ReadResponseFrame reads one response frame, reusing buf's capacity for
// the payload.
func ReadResponseFrame(r io.Reader, buf []byte) (ResponseFrame, []byte, error) {
	status, tag, payload, out, err := readFrame(r, buf, validStatus, "status")
	if err != nil {
		return ResponseFrame{}, out, err
	}
	return ResponseFrame{Status: status, Tag: tag, Payload: payload}, out, nil
}
