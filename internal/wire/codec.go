package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"wmsketch/internal/frame"
	"wmsketch/internal/stream"
)

// Payload codecs (all little-endian, matching the gossip wire and the
// checkpoint format):
//
//	update request    uvarint count ≥ 1
//	                  per example: label byte (0x01 = +1, 0xFF = -1),
//	                               uvarint nnz, nnz × feature
//	feature           uvarint index (≤ MaxUint32), float64 bits value
//	update response   uvarint applied, uvarint steps
//	predict request   uvarint nnz, nnz × feature
//	predict response  float64 bits margin, label byte
//	estimate request  uvarint count ≥ 1, count × uvarint index
//	estimate response uvarint count, count × float64 bits weight
//	                  (request order; the requester pairs them with its
//	                  own indices)
//	ping              empty both ways
//	error response    raw UTF-8 message (≤ MaxErrorBytes)
//
// Every decoder reads its payload through a frame.Cursor, so it consumes
// the payload exactly — trailing bytes are a malformed request — and
// rejects non-finite floats centrally, the same contract the JSON path
// enforces in toVector. Encoders are append-style so callers can pool the
// destination buffers.

// ---- append-style encoders ----

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendVector(dst []byte, x stream.Vector) ([]byte, error) {
	if len(x) > MaxVectorNNZ {
		return dst, fmt.Errorf("wire: vector has %d features, limit %d", len(x), MaxVectorNNZ)
	}
	dst = appendUvarint(dst, uint64(len(x)))
	for _, f := range x {
		if !frame.Finite(f.Value) {
			return dst, fmt.Errorf("wire: feature %d has non-finite value", f.Index)
		}
		dst = appendUvarint(dst, uint64(f.Index))
		dst = appendF64(dst, f.Value)
	}
	return dst, nil
}

// AppendUpdateRequest encodes a training batch. Labels must be ±1 and
// values finite — the encoder enforces the same contract the decoder does,
// so a conforming client can never elicit a StatusBadRequest.
func AppendUpdateRequest(dst []byte, batch []stream.Example) ([]byte, error) {
	if len(batch) == 0 {
		return dst, fmt.Errorf("wire: empty update batch")
	}
	if len(batch) > MaxBatchExamples {
		return dst, fmt.Errorf("wire: batch has %d examples, limit %d", len(batch), MaxBatchExamples)
	}
	dst = appendUvarint(dst, uint64(len(batch)))
	for i := range batch {
		switch batch[i].Y {
		case 1:
			dst = append(dst, 0x01)
		case -1:
			dst = append(dst, 0xFF)
		default:
			return dst, fmt.Errorf("wire: example %d: label must be +1 or -1, got %d", i, batch[i].Y)
		}
		var err error
		if dst, err = appendVector(dst, batch[i].X); err != nil {
			return dst, fmt.Errorf("wire: example %d: %w", i, err)
		}
	}
	return dst, nil
}

// DecodeUpdateRequest decodes a training batch. The returned examples and
// their feature backing array are freshly allocated (sharded backends
// retain batches asynchronously, so they must not alias a pooled buffer);
// nnzScratch is transient per-example bookkeeping the caller may pool, and
// the possibly-grown scratch is returned for reuse.
func DecodeUpdateRequest(payload []byte, nnzScratch []int) ([]stream.Example, []int, error) {
	c := frame.NewCursor(payload)
	n, err := c.Count(MaxBatchExamples)
	if err != nil {
		return nil, nnzScratch, fmt.Errorf("batch count: %w", err)
	}
	if n == 0 {
		return nil, nnzScratch, fmt.Errorf("no examples")
	}
	batch := make([]stream.Example, 0, frame.UpfrontCap(n))
	nnz := nnzScratch[:0]
	// Features decode into one flat backing array, subsliced per example
	// afterwards: one allocation per frame instead of one per example. The
	// length bound is exact-by-construction — every encoded feature costs
	// at least 9 payload bytes, and those bytes have already arrived — so
	// the array is sized once and each example's features are written by
	// index into their own window of it.
	feats := make([]stream.Feature, c.Len()/9)
	k := 0 // features decoded so far
	for i := 0; i < n; i++ {
		lb, err := c.U8()
		if err != nil {
			return nil, nnz, fmt.Errorf("example %d: %w", i, err)
		}
		var y int
		switch lb {
		case 0x01:
			y = 1
		case 0xFF:
			y = -1
		default:
			return nil, nnz, fmt.Errorf("example %d: label must be +1 or -1, got byte %#x", i, lb)
		}
		m, err := c.Count(MaxVectorNNZ)
		if err != nil {
			return nil, nnz, fmt.Errorf("example %d: nnz: %w", i, err)
		}
		dst := feats[k:min(k+m, len(feats))]
		used, err := decodeFeatures(c.Rest(), dst, i, 0)
		if err == nil && len(dst) < m {
			// Only an nnz that overruns the payload outgrows the array:
			// fewer than 9 bytes are left past the window, so the next
			// feature fails, with the error it would fail with anyway.
			var spill [1]stream.Feature
			_, err = decodeFeatures(c.Rest()[used:], spill[:], i, len(dst))
		}
		if err != nil {
			return nil, nnz, err
		}
		c.Skip(used)
		k += m
		batch = append(batch, stream.Example{Y: y})
		nnz = append(nnz, m)
	}
	if err := c.Done(); err != nil {
		return nil, nnz, err
	}
	off := 0
	for i := range batch {
		batch[i].X = stream.Vector(feats[off : off+nnz[i] : off+nnz[i]])
		off += nnz[i]
	}
	return batch, nnz, nil
}

// decodeFeatures decodes len(dst) features of example i, numbered from j0,
// off the front of b and returns the bytes it used. It is the hot loop of
// the hot endpoint, so it is open-coded over b. An index of up to three
// bytes (below 2^21: most indices) decodes from one 8-byte load without
// branching on its length; longer ones, and the last few bytes of a
// payload, go through binary.Uvarint. The contract is frame.Cursor's:
// indices fit uint32 and values are finite.
func decodeFeatures(b []byte, dst []stream.Feature, i, j0 int) (int, error) {
	rest := b
	for j := range dst {
		// ends keeps the top bit of each of the first three bytes whose
		// top bit is clear, the bytes that end a uvarint; its lowest set
		// bit marks the index's last byte.
		var idx, x, ends uint64
		if len(rest) >= 8 {
			x = binary.LittleEndian.Uint64(rest)
			ends = ^x & 0x808080
		}
		if ends != 0 {
			n := bits.TrailingZeros64(ends)/8 + 1
			x &= 1<<(8*n) - 1
			idx = x&0x7f | (x>>8&0x7f)<<7 | (x>>16&0x7f)<<14
			//lint:ignore decodebounds n is 1–3 by construction (ends is nonzero within the low three bytes) and len(rest) ≥ 8
			rest = rest[n:]
		} else {
			v, k := binary.Uvarint(rest)
			if k <= 0 {
				return 0, fmt.Errorf("example %d feature %d: bad uvarint", i, j0+j)
			}
			if v > math.MaxUint32 {
				return 0, fmt.Errorf("example %d feature %d: feature index %d overflows uint32", i, j0+j, v)
			}
			idx = v
			rest = rest[k:]
		}
		if len(rest) < 8 {
			return 0, fmt.Errorf("example %d feature %d: truncated float", i, j0+j)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
		if !frame.Finite(v) {
			return 0, fmt.Errorf("example %d feature %d: %w", i, j0+j, frame.NonFinite(v))
		}
		dst[j] = stream.Feature{Index: uint32(idx), Value: v}
	}
	return len(b) - len(rest), nil
}

// AppendUpdateResponse encodes an update result (applied count, step
// counter after the batch).
func AppendUpdateResponse(dst []byte, applied int, steps int64) []byte {
	dst = appendUvarint(dst, uint64(applied))
	return appendUvarint(dst, uint64(steps))
}

// DecodeUpdateResponse decodes an update result.
func DecodeUpdateResponse(payload []byte) (applied int, steps int64, err error) {
	c := frame.NewCursor(payload)
	a, err := c.Count(MaxBatchExamples)
	if err != nil {
		return 0, 0, fmt.Errorf("applied: %w", err)
	}
	s, err := c.Uvarint()
	if err != nil {
		return 0, 0, fmt.Errorf("steps: %w", err)
	}
	if s > math.MaxInt64 {
		return 0, 0, fmt.Errorf("steps %d overflows int64", s)
	}
	if err := c.Done(); err != nil {
		return 0, 0, err
	}
	return a, int64(s), nil
}

// AppendPredictRequest encodes the feature vector to score.
func AppendPredictRequest(dst []byte, x stream.Vector) ([]byte, error) {
	return appendVector(dst, x)
}

// DecodePredictRequest decodes a predict vector into scratch's capacity
// (predict is synchronous — the backend does not retain the vector, so the
// caller may pool it).
func DecodePredictRequest(payload []byte, scratch stream.Vector) (stream.Vector, error) {
	c := frame.NewCursor(payload)
	n, err := c.Count(MaxVectorNNZ)
	if err != nil {
		return scratch[:0], fmt.Errorf("nnz: %w", err)
	}
	x := slices.Grow(scratch[:0], frame.UpfrontCap(n))
	for j := 0; j < n; j++ {
		idx, err := c.Index()
		if err != nil {
			return x[:0], fmt.Errorf("feature %d: %w", j, err)
		}
		v, err := c.F64()
		if err != nil {
			return x[:0], fmt.Errorf("feature %d: %w", j, err)
		}
		x = append(x, stream.Feature{Index: idx, Value: v})
	}
	if err := c.Done(); err != nil {
		return x[:0], err
	}
	return x, nil
}

// AppendPredictResponse encodes a margin and its sign label.
func AppendPredictResponse(dst []byte, margin float64, label int) []byte {
	dst = appendF64(dst, margin)
	if label > 0 {
		return append(dst, 0x01)
	}
	return append(dst, 0xFF)
}

// DecodePredictResponse decodes a predict result.
func DecodePredictResponse(payload []byte) (margin float64, label int, err error) {
	c := frame.NewCursor(payload)
	if margin, err = c.F64(); err != nil {
		return 0, 0, fmt.Errorf("margin: %w", err)
	}
	lb, err := c.U8()
	if err != nil {
		return 0, 0, fmt.Errorf("label: %w", err)
	}
	switch lb {
	case 0x01:
		label = 1
	case 0xFF:
		label = -1
	default:
		return 0, 0, fmt.Errorf("label byte %#x", lb)
	}
	if err := c.Done(); err != nil {
		return 0, 0, err
	}
	return margin, label, nil
}

// AppendEstimateRequest encodes a batch of feature indices.
func AppendEstimateRequest(dst []byte, indices []uint32) ([]byte, error) {
	if len(indices) == 0 {
		return dst, fmt.Errorf("wire: no indices")
	}
	if len(indices) > MaxEstimateIndices {
		return dst, fmt.Errorf("wire: %d indices, limit %d", len(indices), MaxEstimateIndices)
	}
	dst = appendUvarint(dst, uint64(len(indices)))
	for _, i := range indices {
		dst = appendUvarint(dst, uint64(i))
	}
	return dst, nil
}

// DecodeEstimateRequest decodes an index batch into scratch's capacity
// (estimate is synchronous; the caller may pool the slice).
func DecodeEstimateRequest(payload []byte, scratch []uint32) ([]uint32, error) {
	c := frame.NewCursor(payload)
	n, err := c.Count(MaxEstimateIndices)
	if err != nil {
		return scratch[:0], fmt.Errorf("index count: %w", err)
	}
	if n == 0 {
		return scratch[:0], fmt.Errorf("no indices")
	}
	out := slices.Grow(scratch[:0], frame.UpfrontCap(n))
	for j := 0; j < n; j++ {
		idx, err := c.Index()
		if err != nil {
			return out[:0], fmt.Errorf("index %d: %w", j, err)
		}
		out = append(out, idx)
	}
	if err := c.Done(); err != nil {
		return out[:0], err
	}
	return out, nil
}

// AppendEstimateResponse encodes weight estimates in request order.
func AppendEstimateResponse(dst []byte, weights []float64) []byte {
	dst = appendUvarint(dst, uint64(len(weights)))
	for _, w := range weights {
		dst = appendF64(dst, w)
	}
	return dst
}

// DecodeEstimateResponse decodes weight estimates into scratch's capacity.
func DecodeEstimateResponse(payload []byte, scratch []float64) ([]float64, error) {
	c := frame.NewCursor(payload)
	n, err := c.Count(MaxEstimateIndices)
	if err != nil {
		return scratch[:0], fmt.Errorf("weight count: %w", err)
	}
	out := slices.Grow(scratch[:0], frame.UpfrontCap(n))
	for j := 0; j < n; j++ {
		w, err := c.F64()
		if err != nil {
			return out[:0], fmt.Errorf("weight %d: %w", j, err)
		}
		out = append(out, w)
	}
	if err := c.Done(); err != nil {
		return out[:0], err
	}
	return out, nil
}

// AppendErrorResponse encodes an error message, truncated to
// MaxErrorBytes.
func AppendErrorResponse(dst []byte, msg string) []byte {
	if len(msg) > MaxErrorBytes {
		msg = msg[:MaxErrorBytes]
	}
	return append(dst, msg...)
}

// DecodeErrorResponse decodes an error-response message.
func DecodeErrorResponse(payload []byte) (string, error) {
	if len(payload) > MaxErrorBytes {
		return "", fmt.Errorf("error message %d bytes exceeds %d", len(payload), MaxErrorBytes)
	}
	return string(payload), nil
}
