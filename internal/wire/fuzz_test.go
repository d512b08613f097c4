package wire

import (
	"bytes"
	"io"
	"testing"

	"wmsketch/internal/stream"
)

// Frame-reader fuzzers, wired into make fuzz-smoke next to the gossip and
// checkpoint fuzzers. The property under test is the frame contract:
// arbitrary bytes must never panic, never allocate unboundedly ahead of
// real payload data, and every accepted frame must re-encode to the exact
// bytes that were read (CRC included). The payload codecs ride along — any
// frame the reader accepts is pushed through its op's decoder too.

// boundedReader hands out at most n bytes, so a hostile length prefix
// cannot be satisfied by the reader and must fail via the chunked-growth
// path rather than a giant make().
func fuzzSeedFrames(f *testing.F) {
	seed := func(kind byte, tag uint32, payload []byte) {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, kind, tag, payload); err == nil {
			f.Add(buf.Bytes())
		}
	}
	upd, _ := AppendUpdateRequest(nil, []stream.Example{
		{Y: 1, X: stream.Vector{{Index: 5, Value: 1.5}}},
	})
	seed(OpUpdate, 1, upd)
	pred, _ := AppendPredictRequest(nil, stream.Vector{{Index: 2, Value: -0.5}})
	seed(OpPredict, 2, pred)
	est, _ := AppendEstimateRequest(nil, []uint32{1, 2, 3})
	seed(OpEstimate, 3, est)
	seed(OpPing, 4, nil)
	seed(StatusOK, 1, AppendUpdateResponse(nil, 1, 7))
	seed(StatusOK, 2, AppendPredictResponse(nil, 0.25, 1))
	seed(StatusOK, 3, AppendEstimateResponse(nil, []float64{0.5}))
	seed(StatusBadRequest, 5, AppendErrorResponse(nil, "no"))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
}

func FuzzReadRequestFrame(f *testing.F) {
	fuzzSeedFrames(f)
	for _, payload := range decodeCases() {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, OpUpdate, 9, payload); err == nil {
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, _, err := ReadRequestFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		// Accepted frames must be bit-exact under re-encoding: same op,
		// tag, and payload produce the same wire bytes including CRC.
		var out bytes.Buffer
		if _, werr := WriteFrame(&out, req.Op, req.Tag, req.Payload); werr != nil {
			t.Fatalf("accepted frame fails to re-encode: %v", werr)
		}
		wireLen := FrameWireSize(len(req.Payload))
		if !bytes.Equal(out.Bytes(), data[:wireLen]) {
			t.Fatalf("re-encode mismatch on accepted frame (%d bytes)", wireLen)
		}
		// Any accepted frame's payload goes through its op decoder; the
		// decoders must not panic and must reject trailing garbage
		// internally (their own done() contract). The update decoder must
		// also agree with its reference, bit for bit and error for error.
		switch req.Op {
		case OpUpdate:
			checkDecodeMatchesReference(t, req.Payload)
		case OpPredict:
			_, _ = DecodePredictRequest(req.Payload, nil)
		case OpEstimate:
			_, _ = DecodeEstimateRequest(req.Payload, nil)
		}
	})
}

func FuzzReadResponseFrame(f *testing.F) {
	fuzzSeedFrames(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, _, err := ReadResponseFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, werr := WriteFrame(&out, resp.Status, resp.Tag, resp.Payload); werr != nil {
			t.Fatalf("accepted frame fails to re-encode: %v", werr)
		}
		if !bytes.Equal(out.Bytes(), data[:FrameWireSize(len(resp.Payload))]) {
			t.Fatal("re-encode mismatch on accepted frame")
		}
		if resp.Status != StatusOK {
			_, _ = DecodeErrorResponse(resp.Payload)
			return
		}
		_, _, _ = DecodeUpdateResponse(resp.Payload)
		_, _, _ = DecodePredictResponse(resp.Payload)
		_, _ = DecodeEstimateResponse(resp.Payload, nil)
	})
}

// TestTruncatedFrameAllocation pins the bounded-allocation property the
// fuzzers rely on: a frame declaring MaxPayloadBytes but delivering almost
// nothing must fail after at most one frame.MaxUpfrontAlloc-sized chunk, not
// after allocating the full declared size.
func TestTruncatedFrameAllocation(t *testing.T) {
	var hdr bytes.Buffer
	big := make([]byte, MaxPayloadBytes) // only to build a valid header cheaply
	if _, err := WriteFrame(io.Discard, OpUpdate, 1, big); err != nil {
		t.Fatal(err)
	}
	hdr.WriteByte(OpUpdate)
	hdr.WriteByte(0)
	hdr.Write([]byte{1, 0, 0, 0})
	hdr.Write([]byte{0, 0, 128, 0}) // declared length 8 MiB
	hdr.Write(make([]byte, 100))    // 100 real payload bytes, then EOF

	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := ReadRequestFrame(bytes.NewReader(hdr.Bytes()), nil); err == nil {
			t.Fatal("truncated frame accepted")
		}
	})
	// One pooled-buffer make (≤ frame.MaxUpfrontAlloc) plus error plumbing; the
	// exact count is not the contract, the absence of an 8 MiB make is.
	if allocs > 10 {
		t.Fatalf("truncated oversize frame cost %.0f allocations", allocs)
	}
}
