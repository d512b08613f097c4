package sketch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// Hardening tests for the restore path: a corrupt or adversarial checkpoint
// must fail fast — bounded allocation, no NaN/Inf adopted into buckets —
// because wmserve restores checkpoints into a live serving process.

// header layout: magic(4) version(4) seed(8) depth(4) width(4) flags(4).
const (
	hdrDepthOff = 16
	hdrWidthOff = 20
	hdrFlagsOff = 24
)

// craftHeader returns a syntactically valid CountSketch header with the
// given shape, followed by no bucket data.
func craftHeader(depth, width uint32) []byte {
	b := make([]byte, 28)
	binary.LittleEndian.PutUint32(b[0:], magicCountSketch)
	binary.LittleEndian.PutUint32(b[4:], serializeVersion)
	binary.LittleEndian.PutUint64(b[8:], 42)
	binary.LittleEndian.PutUint32(b[hdrDepthOff:], depth)
	binary.LittleEndian.PutUint32(b[hdrWidthOff:], width)
	binary.LittleEndian.PutUint32(b[24:], 0)
	return b
}

func TestReadRejectsHugeShape(t *testing.T) {
	// Within the per-field limits the old code accepted (depth ≤ 2^16,
	// width ≤ 2^30), but 2^46 total buckets = 512 TiB of float64. The read
	// must error on the header alone — before allocating bucket storage.
	cases := []struct {
		name         string
		depth, width uint32
	}{
		{"max-both", 1 << 16, 1 << 30},
		{"deep", 1 << 16, 1 << 12},
		{"wide", 1 << 4, 1 << 30},
		{"just-over", 1, MaxBuckets + 1},
	}
	for _, tc := range cases {
		blob := craftHeader(tc.depth, tc.width)
		if _, err := ReadCountSketch(bytes.NewReader(blob)); err == nil {
			t.Errorf("%s: %dx%d must be rejected", tc.name, tc.depth, tc.width)
		}
	}
	// The limit itself is fine shape-wise (it fails later on truncation,
	// not on the shape check).
	blob := craftHeader(1, 1<<20)
	_, err := ReadCountSketch(bytes.NewReader(blob))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("truncated")) {
		t.Errorf("in-bounds shape should fail on truncation, got %v", err)
	}
	// With a flag set, which no writer does, it fails on the flags instead,
	// before any bucket is allocated.
	binary.LittleEndian.PutUint32(blob[hdrFlagsOff:], 1<<31)
	if _, err := ReadCountSketch(bytes.NewReader(blob)); err == nil || !bytes.Contains([]byte(err.Error()), []byte("flags")) {
		t.Errorf("a header flag should fail on the flags, got %v", err)
	}
}

// deepSketch is a consistent 32,796-byte sketch of 4096 rows of one
// bucket: the header and every bucket, 64 times deeper than MaxDepth.
func deepSketch() []byte {
	return append(craftHeader(4096, 1), make([]byte, 8*4096)...)
}

// TestReadRefusesDeepSketch: a sketch deeper than MaxDepth is refused on
// its header. Accepted, its 32 KB of buckets would arrive and then build a
// 56 MB hash family, one row per bucket.
func TestReadRefusesDeepSketch(t *testing.T) {
	const bound = 64 << 10
	blob := deepSketch()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCountSketch(bytes.NewReader(blob))
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes in, %d allocated: %v", len(blob), allocated, err)
	if err == nil {
		t.Error("a sketch of depth 4096 was accepted")
	}
	if allocated > bound {
		t.Errorf("refusing it allocated %d bytes, bound %d", allocated, bound)
	}
}

func TestReadRejectsNonFiniteBuckets(t *testing.T) {
	cs := NewCountSketch(2, 16, 7)
	cs.Update(3, 1.5)
	var buf bytes.Buffer
	if _, err := cs.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, bits := range []uint64{
		math.Float64bits(math.NaN()),
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
	} {
		blob := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint64(blob[28+8*5:], bits) // bucket 5 of row 0
		if _, err := ReadCountSketch(bytes.NewReader(blob)); err == nil {
			t.Errorf("count-sketch restore must reject bucket %x", bits)
		}
	}
}

// reflectiveWriteTo reproduces the pre-PR element-at-a-time serialization
// (one binary.Write per float64) as an executable reference: the bulk
// encoder must emit byte-identical output.
func reflectiveWriteTo(cs *CountSketch, w io.Writer) error {
	if _, err := w.Write(cs.appendHeader(nil)); err != nil {
		return err
	}
	for j := 0; j < cs.depth; j++ {
		for _, v := range cs.Row(j) {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestBulkEncodingByteIdentical(t *testing.T) {
	cs := NewCountSketch(3, 128, 11)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 700; i++ {
		cs.Update(rng.Uint32(), rng.NormFloat64())
	}
	var fast, ref bytes.Buffer
	n, err := cs.WriteTo(&fast)
	if err != nil {
		t.Fatal(err)
	}
	if err := reflectiveWriteTo(cs, &ref); err != nil {
		t.Fatal(err)
	}
	if n != int64(fast.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, fast.Len())
	}
	if !bytes.Equal(fast.Bytes(), ref.Bytes()) {
		t.Fatal("bulk encoding is not byte-identical to the per-element reference")
	}
}

// reflectiveReadCountSketch is the pre-PR element-at-a-time decode.
func reflectiveReadCountSketch(r io.Reader) (*CountSketch, error) {
	seed, depth, width, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	cs := NewCountSketch(depth, width, seed)
	for j := 0; j < depth; j++ {
		row := cs.Row(j)
		for i := range row {
			if err := binary.Read(r, binary.LittleEndian, &row[i]); err != nil {
				return nil, err
			}
		}
	}
	return cs, nil
}

func benchSketch(b *testing.B) (*CountSketch, []byte) {
	b.Helper()
	cs := NewCountSketch(2, 1<<14, 3)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1<<14; i++ {
		cs.Update(rng.Uint32(), rng.NormFloat64())
	}
	var buf bytes.Buffer
	if _, err := cs.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	return cs, buf.Bytes()
}

func BenchmarkCountSketchWriteTo(b *testing.B) {
	cs, blob := benchSketch(b)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountSketchWriteToReflective(b *testing.B) {
	cs, blob := benchSketch(b)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Buffered like the pre-PR implementation, so the comparison
		// isolates the per-element reflection cost.
		bw := bufio.NewWriter(io.Discard)
		if err := reflectiveWriteTo(cs, bw); err != nil {
			b.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountSketchRead(b *testing.B) {
	_, blob := benchSketch(b)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCountSketch(bytes.NewReader(blob)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountSketchReadReflective(b *testing.B) {
	_, blob := benchSketch(b)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reflectiveReadCountSketch(bytes.NewReader(blob)); err != nil {
			b.Fatal(err)
		}
	}
}
