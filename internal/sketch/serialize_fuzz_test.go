package sketch

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadCountSketch drives checkpoint restore with corrupted, truncated,
// and adversarial checkpoints. The contract under fuzz: restore either
// returns an error or returns a usable sketch — never a panic, never an
// unbounded allocation (MaxBuckets gates the header), and never a sketch
// carrying non-finite buckets. An accepted restore must also serialize
// back to exactly the bytes it consumed: restore adopts nothing it cannot
// write again, so a header field it dropped would fail here.
//
// `make fuzz-smoke` runs this alongside the cluster wire-format fuzzer;
// longer runs: go test -fuzz FuzzReadCountSketch ./internal/sketch.
func FuzzReadCountSketch(f *testing.F) {
	// Seed corpus: a real checkpoint with traffic, an empty one, plus
	// truncations at interesting depths and seeded bit flips.
	cs := NewCountSketch(3, 64, 42)
	for i := uint32(0); i < 500; i++ {
		cs.Update(i%97, float64(i)*0.25-30)
	}
	var buf bytes.Buffer
	if _, err := cs.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := append([]byte(nil), buf.Bytes()...)

	buf.Reset()
	if _, err := NewCountSketch(1, 8, 7).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	empty := append([]byte(nil), buf.Bytes()...)

	for _, s := range [][]byte{valid, empty} {
		f.Add(s)
		for _, cut := range []int{0, 4, 8, 23, 24, len(s) / 2, len(s) - 1} {
			if cut >= 0 && cut < len(s) {
				f.Add(append([]byte(nil), s[:cut]...))
			}
		}
		for _, flip := range []int{5, 12, 24, len(s) - 8} {
			if flip >= 0 && flip < len(s) {
				mut := append([]byte(nil), s...)
				mut[flip] ^= 0xA5
				f.Add(mut)
			}
		}
	}
	// A consistent sketch deeper than MaxDepth (TestReadRefusesDeepSketch).
	f.Add(deepSketch())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		got, err := ReadCountSketch(r)
		if err != nil {
			return // rejected: fine, as long as we did not panic
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("re-serialize of accepted restore failed: %v", err)
		}
		if read := data[:len(data)-r.Len()]; !bytes.Equal(out.Bytes(), read) {
			t.Fatalf("accepted sketch of %d bytes re-serializes to %d different bytes", len(read), out.Len())
		}
		// Accepted checkpoints must be fully usable: finite estimates and
		// update arithmetic that stays finite.
		for _, key := range []uint32{0, 1, 31, 1 << 30} {
			if v := got.Estimate(key); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("restored sketch estimates non-finite %g at key %d", v, key)
			}
		}
		got.Update(3, 1.5)
	})
}
