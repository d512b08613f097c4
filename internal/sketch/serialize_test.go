package sketch

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestCountSketchRoundTrip(t *testing.T) {
	cs := NewCountSketch(4, 256, 77)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint32, 500)
	for i := range keys {
		keys[i] = rng.Uint32()
		cs.Update(keys[i], rng.NormFloat64()*10)
	}
	var buf bytes.Buffer
	if _, err := cs.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCountSketch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Depth() != 4 || got.Width() != 256 {
		t.Fatalf("shape %dx%d", got.Depth(), got.Width())
	}
	// Queries must be bit-identical: same buckets AND same hash functions.
	for _, k := range keys {
		if got.Estimate(k) != cs.Estimate(k) {
			t.Fatalf("estimate mismatch for key %d", k)
		}
	}
	// And the deserialized sketch must continue to accept updates
	// consistently with the original.
	cs.Update(42, 3.5)
	got.Update(42, 3.5)
	if got.Estimate(42) != cs.Estimate(42) {
		t.Fatal("post-deserialization update diverged")
	}
}

// TestAppendBinaryMatchesWriteTo: the append form writes WriteTo's bytes,
// after whatever the buffer already holds, in one allocation at most.
func TestAppendBinaryMatchesWriteTo(t *testing.T) {
	// 3×2^13 buckets span several of WriteTo's chunks.
	cs := NewCountSketch(3, 1<<13, 5)
	rng := rand.New(rand.NewSource(2))
	for range 2000 {
		cs.Update(rng.Uint32(), rng.NormFloat64())
	}
	var want bytes.Buffer
	if _, err := cs.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	got, err := cs.AppendBinary([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) || len(want.Bytes()) != cs.EncodedSize() {
		t.Fatalf("AppendBinary wrote %d bytes, WriteTo %d, EncodedSize %d", len(got)-6, want.Len(), cs.EncodedSize())
	}
	if allocs := testing.AllocsPerRun(5, func() { _, _ = cs.AppendBinary(nil) }); allocs > 1 {
		t.Fatalf("AppendBinary allocated %.0f times, want 1", allocs)
	}
}

func TestDeserializeErrors(t *testing.T) {
	// Truncated stream.
	if _, err := ReadCountSketch(strings.NewReader("xx")); err == nil {
		t.Error("truncated header must error")
	}
	cs := NewCountSketch(2, 8, 1)
	var buf bytes.Buffer
	if _, err := cs.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Wrong magic.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[0] ^= 1
	if _, err := ReadCountSketch(bytes.NewReader(bad)); err == nil {
		t.Error("magic mismatch must error")
	}
	// A header flag: no writer sets one, so neither reader adopts it and
	// writes it back as 0.
	bad = append([]byte(nil), buf.Bytes()...)
	bad[24] |= 1
	for _, read := range []func(io.Reader) (*CountSketch, error){ReadCountSketch, cs.Geometry().Read} {
		if _, err := read(bytes.NewReader(bad)); err == nil {
			t.Error("a header flag must error")
		}
	}
	// Truncated body.
	short := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadCountSketch(bytes.NewReader(short)); err == nil {
		t.Error("truncated body must error")
	}
}

func TestCountSketchMergeEqualsConcatenation(t *testing.T) {
	a := NewCountSketch(3, 64, 5)
	b := NewCountSketch(3, 64, 5)
	whole := NewCountSketch(3, 64, 5)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		key := uint32(rng.Intn(500))
		v := rng.NormFloat64()
		if i%2 == 0 {
			a.Update(key, v)
		} else {
			b.Update(key, v)
		}
		whole.Update(key, v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		ra, rw := a.Row(j), whole.Row(j)
		for i := range ra {
			if math.Abs(ra[i]-rw[i]) > 1e-9 {
				t.Fatalf("row %d bucket %d: merged %g vs whole %g", j, i, ra[i], rw[i])
			}
		}
	}
}

func TestCountMinMergeEqualsConcatenation(t *testing.T) {
	a := NewCountMin(3, 64, 5)
	b := NewCountMin(3, 64, 5)
	whole := NewCountMin(3, 64, 5)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		key := uint32(rng.Intn(500))
		if i%2 == 0 {
			a.Update(key, 1)
		} else {
			b.Update(key, 1)
		}
		whole.Update(key, 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != whole.Total() {
		t.Fatalf("total %g vs %g", a.Total(), whole.Total())
	}
	for k := uint32(0); k < 500; k++ {
		if a.Estimate(k) != whole.Estimate(k) {
			t.Fatalf("estimate mismatch for key %d", k)
		}
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := NewCountSketch(2, 64, 1)
	if err := a.Merge(NewCountSketch(3, 64, 1)); err == nil {
		t.Error("depth mismatch must error")
	}
	if err := a.Merge(NewCountSketch(2, 32, 1)); err == nil {
		t.Error("width mismatch must error")
	}
	if err := a.Merge(NewCountSketch(2, 64, 2)); err == nil {
		t.Error("seed mismatch must error")
	}
	cm := NewCountMin(2, 64, 1)
	if err := cm.Merge(NewConservativeCountMin(2, 64, 1)); err == nil {
		t.Error("conservative merge must error")
	}
}

func TestMergeErrorLeavesUnchanged(t *testing.T) {
	a := NewCountSketch(2, 64, 1)
	a.Update(5, 10)
	before := a.Estimate(5)
	if err := a.Merge(NewCountSketch(2, 64, 99)); err == nil {
		t.Fatal("expected error")
	}
	if a.Estimate(5) != before {
		t.Fatal("failed merge mutated receiver")
	}
}
