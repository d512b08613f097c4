package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"wmsketch/internal/frame"
	"wmsketch/internal/stream"
)

func mustFrame(t *testing.T, kind byte, tag uint32, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteFrame(&buf, kind, tag, payload)
	if err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if n != buf.Len() || n != FrameWireSize(len(payload)) {
		t.Fatalf("WriteFrame reported %d bytes, wrote %d, FrameWireSize says %d",
			n, buf.Len(), FrameWireSize(len(payload)))
	}
	return buf.Bytes()
}

func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf); err != nil {
		t.Fatalf("WriteHandshake: %v", err)
	}
	if buf.Len() != HandshakeSize {
		t.Fatalf("handshake is %d bytes, want %d", buf.Len(), HandshakeSize)
	}
	if err := ReadHandshake(&buf); err != nil {
		t.Fatalf("ReadHandshake: %v", err)
	}
}

func TestHandshakeRejects(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		_ = WriteHandshake(&buf)
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"truncated":   good()[:5],
		"bad magic":   append([]byte{'X', 'X', 'X', 'X'}, good()[4:]...),
		"bad version": append(good()[:4], 99, 0, 0, 0),
	}
	for name, raw := range cases {
		if err := ReadHandshake(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: handshake accepted", name)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{0x42},
		bytes.Repeat([]byte{0xAB}, 1000),
		bytes.Repeat([]byte{0xCD}, frame.MaxUpfrontAlloc+5000), // spans chunked growth
	}
	var buf []byte
	for i, p := range payloads {
		tag := uint32(1000 + i)
		raw := mustFrame(t, OpUpdate, tag, p)
		req, grown, err := ReadRequestFrame(bytes.NewReader(raw), buf)
		buf = grown
		if err != nil {
			t.Fatalf("payload %d: ReadRequestFrame: %v", i, err)
		}
		if req.Op != OpUpdate || req.Tag != tag || !bytes.Equal(req.Payload, p) {
			t.Fatalf("payload %d: round trip mismatch (op %d, tag %d, %d bytes)",
				i, req.Op, req.Tag, len(req.Payload))
		}
	}
	// Response direction shares the framing.
	raw := mustFrame(t, StatusBadRequest, 7, []byte("nope"))
	resp, _, err := ReadResponseFrame(bytes.NewReader(raw), nil)
	if err != nil {
		t.Fatalf("ReadResponseFrame: %v", err)
	}
	if resp.Status != StatusBadRequest || resp.Tag != 7 || string(resp.Payload) != "nope" {
		t.Fatalf("response round trip mismatch: %+v", resp)
	}
}

func TestFramePipelinedStream(t *testing.T) {
	// Several frames back to back on one reader, reusing one buffer.
	var stream bytes.Buffer
	for tag := uint32(1); tag <= 5; tag++ {
		frame := mustFrame(t, OpPing, tag, bytes.Repeat([]byte{byte(tag)}, int(tag)*10))
		stream.Write(frame)
	}
	var buf []byte
	for tag := uint32(1); tag <= 5; tag++ {
		req, grown, err := ReadRequestFrame(&stream, buf)
		buf = grown
		if err != nil {
			t.Fatalf("frame %d: %v", tag, err)
		}
		if req.Tag != tag || len(req.Payload) != int(tag)*10 {
			t.Fatalf("frame %d: got tag %d, %d bytes", tag, req.Tag, len(req.Payload))
		}
	}
	if _, _, err := ReadRequestFrame(&stream, buf); err != io.EOF {
		t.Fatalf("want clean io.EOF after last frame, got %v", err)
	}
}

func TestFrameRejects(t *testing.T) {
	base := mustFrame(t, OpPredict, 9, []byte("abcd"))
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), base...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"unknown op":     corrupt(func(b []byte) { b[0] = 200 }),
		"zero op":        corrupt(func(b []byte) { b[0] = 0 }),
		"nonzero flags":  corrupt(func(b []byte) { b[1] = 1 }),
		"payload bitrot": corrupt(func(b []byte) { b[headerSize] ^= 0x80 }),
		"header bitrot":  corrupt(func(b []byte) { b[2] ^= 0x01 }), // tag flip must fail the CRC
		"truncated":      base[:len(base)-2],
		"oversize length": corrupt(func(b []byte) {
			b[6], b[7], b[8], b[9] = 0xFF, 0xFF, 0xFF, 0xFF
		}),
	}
	for name, raw := range cases {
		if _, _, err := ReadRequestFrame(bytes.NewReader(raw), nil); err == nil {
			t.Errorf("%s: frame accepted", name)
		} else if errors.Is(err, io.EOF) && name != "truncated" {
			t.Errorf("%s: got bare EOF, want a descriptive error", name)
		}
	}
	// The response reader applies its own kind validation.
	badStatus := corrupt(func(b []byte) { b[0] = 50 })
	if _, _, err := ReadResponseFrame(bytes.NewReader(badStatus), nil); err == nil {
		t.Error("unknown status accepted")
	}
}

func TestWriteFrameRejectsOversizePayload(t *testing.T) {
	// Oversize must be rejected before any bytes hit the writer, so a
	// half-written frame can never desynchronize the connection.
	var buf bytes.Buffer
	big := make([]byte, MaxPayloadBytes+1)
	if _, err := WriteFrame(&buf, OpUpdate, 1, big); err == nil {
		t.Fatal("oversize payload accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written before the size check", buf.Len())
	}
}

func testBatch() []stream.Example {
	return []stream.Example{
		{Y: 1, X: stream.Vector{{Index: 0, Value: 1.5}, {Index: 77, Value: -2.25}}},
		{Y: -1, X: stream.Vector{{Index: math.MaxUint32, Value: 1e-9}}},
		{Y: 1, X: nil}, // empty vector is legal, matching the JSON path
	}
}

func TestUpdateCodecRoundTrip(t *testing.T) {
	batch := testBatch()
	enc, err := AppendUpdateRequest(nil, batch)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, _, err := DecodeUpdateRequest(enc, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(batch) {
		t.Fatalf("decoded %d examples, want %d", len(dec), len(batch))
	}
	for i := range batch {
		if dec[i].Y != batch[i].Y || len(dec[i].X) != len(batch[i].X) {
			t.Fatalf("example %d mismatch: %+v vs %+v", i, dec[i], batch[i])
		}
		for j := range batch[i].X {
			if dec[i].X[j] != batch[i].X[j] {
				t.Fatalf("example %d feature %d: %+v vs %+v", i, j, dec[i].X[j], batch[i].X[j])
			}
		}
	}
	// The flat feature backing must be capped per example: an append to one
	// example's vector must not clobber the next example's features.
	if cap(dec[0].X) != len(dec[0].X) {
		t.Fatalf("example 0 vector cap %d leaks past its length %d", cap(dec[0].X), len(dec[0].X))
	}

	resp := AppendUpdateResponse(nil, len(batch), 12345)
	applied, steps, err := DecodeUpdateResponse(resp)
	if err != nil || applied != len(batch) || steps != 12345 {
		t.Fatalf("update response round trip: %d/%d/%v", applied, steps, err)
	}
}

func TestUpdateCodecRejects(t *testing.T) {
	if _, err := AppendUpdateRequest(nil, nil); err == nil {
		t.Error("empty batch encoded")
	}
	if _, err := AppendUpdateRequest(nil, []stream.Example{{Y: 2}}); err == nil {
		t.Error("label 2 encoded")
	}
	if _, err := AppendUpdateRequest(nil, []stream.Example{
		{Y: 1, X: stream.Vector{{Index: 0, Value: math.NaN()}}},
	}); err == nil {
		t.Error("NaN value encoded")
	}

	good, _ := AppendUpdateRequest(nil, testBatch())
	decodeFails := func(name string, payload []byte) {
		t.Helper()
		if _, _, err := DecodeUpdateRequest(payload, nil); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	decodeFails("empty payload", nil)
	decodeFails("zero examples", appendUvarint(nil, 0))
	decodeFails("oversize count", appendUvarint(nil, MaxBatchExamples+1))
	decodeFails("truncated", good[:len(good)-3])
	decodeFails("trailing bytes", append(append([]byte(nil), good...), 0x00))
	decodeFails("bad label byte", func() []byte {
		p := appendUvarint(nil, 1)
		return append(p, 0x02)
	}())
	decodeFails("non-finite value", func() []byte {
		p := appendUvarint(nil, 1)
		p = append(p, 0x01)
		p = appendUvarint(p, 1)
		p = appendUvarint(p, 5)
		return appendF64(p, math.Inf(1))
	}())
	decodeFails("index overflow", func() []byte {
		p := appendUvarint(nil, 1)
		p = append(p, 0x01)
		p = appendUvarint(p, 1)
		p = appendUvarint(p, uint64(math.MaxUint32)+1)
		return appendF64(p, 1)
	}())
}

func TestPredictCodecRoundTrip(t *testing.T) {
	x := stream.Vector{{Index: 3, Value: 0.5}, {Index: 9, Value: -1}}
	enc, err := AppendPredictRequest(nil, x)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodePredictRequest(enc, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(x) || dec[0] != x[0] || dec[1] != x[1] {
		t.Fatalf("round trip mismatch: %+v", dec)
	}

	for _, margin := range []float64{0.75, -0.125, 0} {
		label := -1
		if margin > 0 {
			label = 1
		}
		resp := AppendPredictResponse(nil, margin, label)
		m, l, err := DecodePredictResponse(resp)
		if err != nil || m != margin || l != label {
			t.Fatalf("predict response round trip (%g): %g/%d/%v", margin, m, l, err)
		}
	}
	if _, _, err := DecodePredictResponse(append(AppendPredictResponse(nil, 1, 1), 0xEE)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestEstimateCodecRoundTrip(t *testing.T) {
	indices := []uint32{0, 42, math.MaxUint32}
	enc, err := AppendEstimateRequest(nil, indices)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeEstimateRequest(enc, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range indices {
		if dec[i] != indices[i] {
			t.Fatalf("index %d: %d != %d", i, dec[i], indices[i])
		}
	}
	if _, err := AppendEstimateRequest(nil, nil); err == nil {
		t.Error("empty index batch encoded")
	}
	if _, err := DecodeEstimateRequest(appendUvarint(nil, 0), nil); err == nil {
		t.Error("zero indices decoded")
	}

	weights := []float64{0.25, -3.5, 0}
	wdec, err := DecodeEstimateResponse(AppendEstimateResponse(nil, weights), nil)
	if err != nil {
		t.Fatalf("weights decode: %v", err)
	}
	for i := range weights {
		if wdec[i] != weights[i] {
			t.Fatalf("weight %d: %g != %g", i, wdec[i], weights[i])
		}
	}
}

func TestErrorCodec(t *testing.T) {
	msg, err := DecodeErrorResponse(AppendErrorResponse(nil, "bad label"))
	if err != nil || msg != "bad label" {
		t.Fatalf("round trip: %q/%v", msg, err)
	}
	long := strings.Repeat("x", MaxErrorBytes+100)
	truncated := AppendErrorResponse(nil, long)
	if len(truncated) != MaxErrorBytes {
		t.Fatalf("truncated to %d bytes, want %d", len(truncated), MaxErrorBytes)
	}
	if _, err := DecodeErrorResponse(make([]byte, MaxErrorBytes+1)); err == nil {
		t.Error("oversize error message decoded")
	}
}

func TestOpNames(t *testing.T) {
	for op, want := range map[byte]string{
		OpUpdate: "update", OpPredict: "predict", OpEstimate: "estimate", OpPing: "ping",
	} {
		if got := OpName(op); got != want {
			t.Errorf("OpName(%d) = %q, want %q", op, got, want)
		}
		if !validOp(op) {
			t.Errorf("validOp(%d) = false", op)
		}
	}
	if validOp(0) || validOp(OpPing+1) {
		t.Error("out-of-range op accepted")
	}
	if !validStatus(StatusOK) || !validStatus(StatusError) || validStatus(StatusError+1) {
		t.Error("status validation wrong")
	}
}
