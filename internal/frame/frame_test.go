package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestFiniteMatchesMath(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000000),
	} {
		if got, want := Finite(v), !math.IsNaN(v) && !math.IsInf(v, 0); got != want {
			t.Errorf("Finite(%g) = %v, want %v", v, got, want)
		}
	}
}

func f64Bytes(vs ...float64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func TestCursorReads(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 3)
	b = binary.AppendUvarint(b, math.MaxUint32)
	b = append(b, 0xFF)
	b = append(b, "node"...)
	b = append(b, f64Bytes(-1.5, 0.25, 2, 1e300)...)
	c := NewCursor(b)
	if n, err := c.Count(3); err != nil || n != 3 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	if i, err := c.Index(); err != nil || i != math.MaxUint32 {
		t.Fatalf("Index = %d, %v", i, err)
	}
	if v, err := c.U8(); err != nil || v != 0xFF {
		t.Fatalf("U8 = %#x, %v", v, err)
	}
	if s, err := c.Bytes(4); err != nil || string(s) != "node" {
		t.Fatalf("Bytes = %q, %v", s, err)
	}
	if v, err := c.F64(); err != nil || v != -1.5 {
		t.Fatalf("F64 = %g, %v", v, err)
	}
	if len(c.Rest()) != 24 {
		t.Fatalf("Rest has %d bytes, want 24", len(c.Rest()))
	}
	c.Skip(8)
	dst := make([]float64, 2)
	if err := c.F64s(dst); err != nil || dst[0] != 2 || dst[1] != 1e300 {
		t.Fatalf("F64s = %v, %v", dst, err)
	}
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestCursorRejects(t *testing.T) {
	huge := binary.AppendUvarint(nil, math.MaxUint32+1)
	for _, c := range []struct {
		name string
		in   []byte
		read func(c *Cursor) error
		want string
	}{
		{"count over limit", binary.AppendUvarint(nil, 11), func(c *Cursor) error { _, err := c.Count(10); return err }, "exceeds limit"},
		{"bad uvarint", []byte{0x80}, func(c *Cursor) error { _, err := c.Uvarint(); return err }, "bad uvarint"},
		{"index overflow", huge, func(c *Cursor) error { _, err := c.Index(); return err }, "overflows"},
		{"empty u8", nil, func(c *Cursor) error { _, err := c.U8(); return err }, "truncated"},
		{"short bytes", []byte("ab"), func(c *Cursor) error { _, err := c.Bytes(3); return err }, "truncated"},
		{"short float", []byte{1, 2, 3}, func(c *Cursor) error { _, err := c.F64(); return err }, "truncated"},
		{"nan", f64Bytes(math.NaN()), func(c *Cursor) error { _, err := c.F64(); return err }, "non-finite"},
		{"inf in bulk", f64Bytes(1, math.Inf(-1)), func(c *Cursor) error { return c.F64s(make([]float64, 2)) }, "value 1: non-finite"},
		{"short bulk", f64Bytes(1), func(c *Cursor) error { return c.F64s(make([]float64, 2)) }, "truncated"},
		{"trailing", []byte{0}, func(c *Cursor) error { return c.Done() }, "1 trailing bytes"},
	} {
		err := c.read(NewCursor(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// A rejected float is not consumed.
func TestCursorFailureDoesNotAdvance(t *testing.T) {
	c := NewCursor(f64Bytes(math.NaN()))
	if _, err := c.F64(); err == nil {
		t.Fatal("NaN accepted")
	}
	if c.Len() != 8 {
		t.Fatalf("failed F64 consumed %d bytes", 8-c.Len())
	}
}

func TestReadNGrowsInChunks(t *testing.T) {
	want := bytes.Repeat([]byte{0xCD}, 2*MaxUpfrontAlloc+5000)
	got, err := ReadN(bytes.NewReader(want), nil, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadN: %d bytes, %v", len(got), err)
	}
	// A reused buffer is filled in place.
	again, err := ReadN(bytes.NewReader(want[:10]), got, 10)
	if err != nil || &again[0] != &got[0] {
		t.Fatalf("ReadN did not reuse a large enough buffer (%v)", err)
	}
}

// TestReadNTruncatedAllocation: a length of 8 MiB backed by 100 bytes
// must fail after one MaxUpfrontAlloc chunk, not after allocating 8 MiB.
// The bound leaves room for a second chunk-sized temporary, which the
// race detector's build allocates where the optimized one does not.
func TestReadNTruncatedAllocation(t *testing.T) {
	in := make([]byte, 100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadN(bytes.NewReader(in), nil, 8<<20)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated read: %v, want io.ErrUnexpectedEOF", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 3*MaxUpfrontAlloc {
		t.Fatalf("truncated read allocated %d bytes", n)
	}
}

func TestReadPayloadCRCSeed(t *testing.T) {
	hdr, payload := []byte("header"), []byte("payload bytes")
	for _, c := range []struct {
		name string
		seed uint32
		crc  uint32
	}{
		{"payload only", 0, crc32.ChecksumIEEE(payload)},
		{"header and payload", crc32.ChecksumIEEE(hdr), crc32.ChecksumIEEE(append(append([]byte(nil), hdr...), payload...))},
	} {
		in := binary.LittleEndian.AppendUint32(append([]byte(nil), payload...), c.crc)
		got, err := ReadPayload(bytes.NewReader(in), nil, len(payload), c.seed)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("%s: %q, %v", c.name, got, err)
		}
		in[0] ^= 1
		if _, err := ReadPayload(bytes.NewReader(in), nil, len(payload), c.seed); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("%s: flipped payload bit: %v", c.name, err)
		}
		if _, err := ReadPayload(bytes.NewReader(in[:len(in)-1]), nil, len(payload), c.seed); err == nil || !strings.Contains(err.Error(), "truncated checksum") {
			t.Errorf("%s: short trailer: %v", c.name, err)
		}
	}
}

func TestReadF64s(t *testing.T) {
	n := 3*MaxUpfrontAlloc/8 + 7 // spans four chunks
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i) - 0.5
	}
	in := f64Bytes(want...)
	got := make([]float64, n)
	r := bytes.NewReader(append(in, 0xAB))
	if err := ReadF64s(r, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d = %g, want %g", i, got[i], want[i])
		}
	}
	if r.Len() != 1 {
		t.Fatalf("ReadF64s left %d bytes, want exactly the 1 after its section", r.Len())
	}

	bad := append([]byte(nil), in...)
	binary.LittleEndian.PutUint64(bad[8*(n-2):], math.Float64bits(math.Inf(1)))
	// The error locates the value: its chunk's first index, then its
	// index within the chunk.
	err := ReadF64s(bytes.NewReader(bad), got)
	at := (n - 2) / (MaxUpfrontAlloc / 8) * (MaxUpfrontAlloc / 8)
	msg := "floats from " + strconv.Itoa(at) + ": value " + strconv.Itoa(n-2-at) + ": non-finite"
	if err == nil || !strings.Contains(err.Error(), msg) {
		t.Fatalf("Inf at %d: %v, want an error containing %q", n-2, err, msg)
	}
	if err := ReadF64s(bytes.NewReader(in[:len(in)-3]), got); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short section: %v", err)
	}
}

func TestAtEOFAndReadCount(t *testing.T) {
	if err := AtEOF(bytes.NewReader(nil)); err != nil {
		t.Fatalf("empty reader: %v", err)
	}
	if err := AtEOF(strings.NewReader("x")); err == nil {
		t.Fatal("trailing byte accepted")
	}
	in := bytes.NewReader(binary.AppendUvarint(nil, 1<<20))
	if _, err := ReadCount(in, 1<<20-1); err == nil {
		t.Fatal("ReadCount accepted a count over its limit")
	}
	if _, err := ReadCount(bytes.NewReader(nil), 1); !errors.Is(err, io.EOF) {
		t.Fatalf("ReadCount on an empty stream: %v, want io.EOF", err)
	}
}

func TestUpfrontCap(t *testing.T) {
	if UpfrontCap(10) != 10 || UpfrontCap(1<<30) != MaxUpfrontAlloc {
		t.Fatal("UpfrontCap does not cap at MaxUpfrontAlloc")
	}
}
