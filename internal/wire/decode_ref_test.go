package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"wmsketch/internal/frame"
	"wmsketch/internal/stream"
)

// refDecodeUpdateRequest is the update-frame decoder as it was before
// DecodeUpdateRequest open-coded multi-byte indices and wrote features by
// index: one feature at a time, a single-byte index inline and any longer
// one through binary.Uvarint, appended to the flat array. It is kept as
// the executable reference the differential checks compare the decoder
// with: the same payloads accepted and rejected, the same decoded bits and
// the same error text.
func refDecodeUpdateRequest(payload []byte, nnzScratch []int) ([]stream.Example, []int, error) {
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
	feats := make([]stream.Feature, 0, c.Len()/9)
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
		b, off := c.Rest(), 0
		for j := 0; j < m; j++ {
			var idx uint64
			if off < len(b) && b[off] < 0x80 {
				idx = uint64(b[off])
				off++
			} else {
				v, k := binary.Uvarint(b[off:])
				if k <= 0 {
					return nil, nnz, fmt.Errorf("example %d feature %d: bad uvarint", i, j)
				}
				if v > math.MaxUint32 {
					return nil, nnz, fmt.Errorf("example %d feature %d: feature index %d overflows uint32", i, j, v)
				}
				idx = v
				off += k
			}
			if len(b)-off < 8 {
				return nil, nnz, fmt.Errorf("example %d feature %d: truncated float", i, j)
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			off += 8
			if !frame.Finite(v) {
				return nil, nnz, fmt.Errorf("example %d feature %d: %w", i, j, frame.NonFinite(v))
			}
			feats = append(feats, stream.Feature{Index: uint32(idx), Value: v})
		}
		c.Skip(off)
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

// checkDecodeMatchesReference decodes payload with DecodeUpdateRequest and
// refDecodeUpdateRequest and fails unless both accept or both reject it,
// with the same error text, or the same labels and feature bits.
func checkDecodeMatchesReference(t *testing.T, payload []byte) {
	t.Helper()
	got, _, gotErr := DecodeUpdateRequest(payload, nil)
	want, _, wantErr := refDecodeUpdateRequest(payload, nil)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("payload %x: error %v, reference %v", payload, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("payload %x: error %q, reference %q", payload, gotErr, wantErr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("payload %x: %d examples, reference %d", payload, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Y != w.Y || len(g.X) != len(w.X) || cap(g.X) != cap(w.X) {
			t.Fatalf("payload %x: example %d is (y %d, %d features), reference (y %d, %d features)",
				payload, i, g.Y, len(g.X), w.Y, len(w.X))
		}
		for j := range w.X {
			if g.X[j].Index != w.X[j].Index || math.Float64bits(g.X[j].Value) != math.Float64bits(w.X[j].Value) {
				t.Fatalf("payload %x: example %d feature %d is %v, reference %v", payload, i, j, g.X[j], w.X[j])
			}
		}
	}
}

// decodeCases are update payloads at the decoder's edges: indices of 1, 2,
// 3, 4 and 5 bytes, overlong encodings, an index above MaxUint32, an nnz
// claiming more features than there are bytes, a non-finite value, trailing
// bytes, and a well-formed payload cut at every byte.
func decodeCases() [][]byte {
	uv := binary.AppendUvarint
	f64 := func(dst []byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	valid, _ := AppendUpdateRequest(nil, []stream.Example{
		{Y: 1, X: stream.Vector{{Index: 5, Value: 1.5}, {Index: 300, Value: -0.25}}},
		{Y: -1, X: stream.Vector{{Index: 100_000, Value: math.SmallestNonzeroFloat64}, {Index: 1<<21 + 1, Value: -0.0}}},
		{Y: 1, X: stream.Vector{{Index: math.MaxUint32, Value: math.MaxFloat64}}},
		{Y: 1},
	})
	overrun := f64([]byte{2, 0xFF, 1, 9}, 1)         // two examples; the first is whole
	overrun = f64(append(overrun, 0x01, 0x7f, 9), 1) // the second claims 127 features, carries one
	one := func(index []byte, value float64) []byte {
		p := append([]byte{1, 0x01, 1}, index...)
		return f64(p, value)
	}
	cases := [][]byte{
		valid,
		one(uv(nil, 0x7f), 2),
		one(uv(nil, 0x3fff), 2),
		one(uv(nil, 1<<21-1), 2),
		one(uv(nil, 1<<28-1), 2),
		one(uv(nil, math.MaxUint32), 2),
		one(uv(nil, math.MaxUint32+1), 2),
		one(uv(nil, math.MaxUint64), 2),
		one([]byte{0x80, 0x00}, 2),       // 0 as an overlong 2-byte uvarint
		one([]byte{0x80, 0x80, 0x00}, 2), // and as a 3-byte one
		one([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 2), // uvarint overflow
		one(uv(nil, 7), math.NaN()),
		one(uv(nil, 7), math.Inf(-1)),
		append(one(uv(nil, 7), 2), 0),          // a trailing byte
		f64([]byte{1, 0x01, 0xe8, 0x07, 9}, 1), // nnz 1000, one feature
		overrun,
		{1, 0x02, 1, 1}, // a bad label
		{0},             // no examples
	}
	for n := 0; n < len(valid); n++ {
		cases = append(cases, valid[:n])
	}
	return cases
}

func TestDecodeUpdateRequestMatchesReference(t *testing.T) {
	for _, payload := range decodeCases() {
		checkDecodeMatchesReference(t, payload)
	}
}
