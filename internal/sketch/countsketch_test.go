package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestCountSketchExactWhenNoCollisions(t *testing.T) {
	// With width far larger than the number of keys, collisions are unlikely
	// and every estimate should be exact.
	cs := NewCountSketch(3, 1<<16, 1)
	want := map[uint32]float64{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		key := rng.Uint32()
		v := rng.NormFloat64() * 10
		cs.Update(key, v)
		want[key] += v
	}
	for key, v := range want {
		got := cs.Estimate(key)
		if math.Abs(got-v) > 1e-9 {
			t.Fatalf("key %d: estimate %g, want %g", key, got, v)
		}
	}
}

func TestCountSketchLinearity(t *testing.T) {
	// The sketch is a linear projection: sketch(x) + sketch(y) = sketch(x+y).
	a := NewCountSketch(5, 64, 9)
	b := NewCountSketch(5, 64, 9)
	c := NewCountSketch(5, 64, 9)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		key := uint32(rng.Intn(200))
		va, vb := rng.NormFloat64(), rng.NormFloat64()
		a.Update(key, va)
		b.Update(key, vb)
		c.Update(key, va+vb)
	}
	for j := 0; j < 5; j++ {
		ra, rb, rc := a.Row(j), b.Row(j), c.Row(j)
		for i := range ra {
			if math.Abs(ra[i]+rb[i]-rc[i]) > 1e-9 {
				t.Fatalf("row %d bucket %d: not linear", j, i)
			}
		}
	}
}

func TestCountSketchUnbiasedSingleRow(t *testing.T) {
	// For a single row, E[sign * bucket] = true value. Average over many
	// independent seeds to check (approximate) unbiasedness.
	const trials = 400
	sum := 0.0
	for s := int64(0); s < trials; s++ {
		cs := NewCountSketch(1, 8, s)
		// Key 1 has value 5; keys 2..40 add noise.
		cs.Update(1, 5)
		rng := rand.New(rand.NewSource(s + 1000))
		for k := uint32(2); k <= 40; k++ {
			cs.Update(k, rng.NormFloat64())
		}
		sum += cs.Estimate(1)
	}
	mean := sum / trials
	if math.Abs(mean-5) > 0.5 {
		t.Fatalf("single-row estimator mean %.3f, want ≈5", mean)
	}
}

func TestCountSketchRecoveryGuarantee(t *testing.T) {
	// Lemma 1: with width Θ(1/ε²) and depth Θ(log(d/δ)), error ≤ ε‖x‖₂.
	// Build a vector with a few heavy entries plus a light tail and check
	// the heavy entries are recovered within the bound.
	const d = 10000
	x := make([]float64, d)
	rng := rand.New(rand.NewSource(4))
	heavy := []int{7, 77, 777, 7777}
	for _, i := range heavy {
		x[i] = 50 * (1 + rng.Float64())
	}
	for i := range x {
		if x[i] == 0 {
			x[i] = rng.NormFloat64() * 0.2
		}
	}
	norm := 0.0
	for _, v := range x {
		norm += v * v
	}
	norm = math.Sqrt(norm)

	cs := NewCountSketch(7, 1024, 5)
	for i, v := range x {
		cs.Update(uint32(i), v)
	}
	// width 1024 → ε ≈ sqrt(1/width)·c; allow error 0.15·‖x‖₂ generously.
	for _, i := range heavy {
		got := cs.Estimate(uint32(i))
		if math.Abs(got-x[i]) > 0.15*norm {
			t.Fatalf("heavy key %d: |%g - %g| > 0.15‖x‖₂=%g", i, got, x[i], 0.15*norm)
		}
	}
}

func TestCountSketchScaleAndReset(t *testing.T) {
	cs := NewCountSketch(2, 16, 6)
	cs.Update(3, 10)
	cs.Scale(0.5)
	if got := cs.Estimate(3); math.Abs(got-5) > 1e-9 {
		t.Fatalf("after Scale(0.5): estimate %g, want 5", got)
	}
	cs.Reset()
	if got := cs.Estimate(3); got != 0 {
		t.Fatalf("after Reset: estimate %g, want 0", got)
	}
}

func TestCountSketchNegativeValues(t *testing.T) {
	// Unlike Count-Min, Count-Sketch handles signed updates.
	cs := NewCountSketch(3, 1024, 8)
	cs.Update(10, -42)
	if got := cs.Estimate(10); math.Abs(got+42) > 1e-9 {
		t.Fatalf("estimate %g, want -42", got)
	}
	cs.Update(10, 42)
	if got := cs.Estimate(10); math.Abs(got) > 1e-9 {
		t.Fatalf("estimate %g, want 0 after cancellation", got)
	}
}

func TestCountSketchL2NormApproximation(t *testing.T) {
	cs := NewCountSketch(5, 4096, 10)
	rng := rand.New(rand.NewSource(11))
	norm2 := 0.0
	for i := 0; i < 2000; i++ {
		v := rng.NormFloat64()
		cs.Update(uint32(i), v)
		norm2 += v * v
	}
	want := math.Sqrt(norm2)
	got := cs.L2Norm()
	if got < 0.8*want || got > 1.2*want {
		t.Fatalf("L2Norm %g not within 20%% of true %g", got, want)
	}
}

func TestCountSketchPanicsOnBadShape(t *testing.T) {
	for _, tc := range []struct{ depth, width int }{{0, 4}, {4, 0}, {-1, 4}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("depth=%d width=%d: expected panic", tc.depth, tc.width)
				}
			}()
			NewCountSketch(tc.depth, tc.width, 1)
		}()
	}
}

func TestCountSketchMemoryBytes(t *testing.T) {
	cs := NewCountSketch(2, 128, 1)
	if got := cs.MemoryBytes(); got != 1024 {
		t.Fatalf("MemoryBytes = %d, want 1024", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{}, 0},
		{[]float64{3}, 3},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-5, 100, 0}, 0},
		{[]float64{2, 2, 2, 2, 2}, 2},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := Median(in); got != c.want {
			t.Errorf("Median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

// TestMedian3MatchesSort compares the depth-3 median with the middle
// element sort.Float64s leaves, bit for bit, for every ordered triple over
// both zeros, ±1, the smallest subnormals, the largest finite floats, ±Inf
// and NaN, repeats included: a −0/+0 tie must return the zero the sort
// leaves in the middle, and NaN sorts first. It checks median3 itself and
// the depth-3 paths that use it: Median, EstimateAt and Estimate.
func TestMedian3MatchesSort(t *testing.T) {
	vals := []float64{
		math.Copysign(0, -1), 0, 1, -1,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	const key = 7
	cs := NewCountSketch(3, 4, 1)
	locs := make([]Loc, 3)
	cs.Locate(key, locs)
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				// Store each value so that its signed read is the value.
				for j, v := range []float64{a, b, c} {
					cs.buckets[locs[j].Bucket] = locs[j].Sign * v
				}
				var read [3]float64
				for j, l := range locs {
					read[j] = l.Sign * cs.buckets[l.Bucket]
				}
				sorted := read
				sort.Float64s(sorted[:])
				want := math.Float64bits(sorted[1])
				for _, got := range []struct {
					name string
					v    float64
				}{
					{"median3", median3(read[0], read[1], read[2])},
					{"Median", Median(append([]float64(nil), read[:]...))},
					{"EstimateAt", cs.EstimateAt(locs)},
					{"Estimate", cs.Estimate(key)},
				} {
					if math.Float64bits(got.v) != want {
						t.Fatalf("%s of %v = %v (%#x), sort leaves %v (%#x) in the middle",
							got.name, read, got.v, math.Float64bits(got.v), sorted[1], want)
					}
				}
			}
		}
	}
}

func TestMedianPropertyBetweenMinMax(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return Median(xs) == 0
		}
		for _, v := range xs {
			if math.IsNaN(v) {
				return true // skip NaN inputs
			}
		}
		cp := append([]float64(nil), xs...)
		m := Median(cp)
		sort.Float64s(cp)
		return m >= cp[0] && m <= cp[len(cp)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMedianRobustToOutlier(t *testing.T) {
	// The median should ignore a single corrupted row — this is the property
	// that makes Count-Sketch estimates robust to one heavy collision.
	vals := []float64{5, 5, 1e12, 5, 5}
	if got := Median(vals); got != 5 {
		t.Fatalf("Median = %g, want 5", got)
	}
}

func BenchmarkCountSketchUpdate(b *testing.B) {
	cs := NewCountSketch(4, 4096, 1)
	for i := 0; i < b.N; i++ {
		cs.Update(uint32(i), 1.0)
	}
}

func BenchmarkCountSketchEstimate(b *testing.B) {
	cs := NewCountSketch(4, 4096, 1)
	for i := 0; i < 10000; i++ {
		cs.Update(uint32(i), 1.0)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += cs.Estimate(uint32(i % 10000))
	}
	_ = sink
}

// TestGeometryBuildsOneFamilyConcurrently: a geometry builds its hash
// family on first use, once, however many goroutines reach it first, and
// every sketch made or read on it shares that family.
func TestGeometryBuildsOneFamilyConcurrently(t *testing.T) {
	g := NewGeometry(3, 64, 5)
	blob, err := NewCountSketch(3, 64, 5).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	sketches := make([]*CountSketch, 8)
	var wg sync.WaitGroup
	for i := range sketches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				sketches[i] = g.New()
				return
			}
			cs, err := g.Read(bytes.NewReader(blob))
			if err != nil {
				t.Error(err)
				return
			}
			sketches[i] = cs
		}()
	}
	wg.Wait()
	for i, cs := range sketches {
		if cs != nil && cs.Hashes() != g.Hashes() {
			t.Errorf("sketch %d has a hash family of its own", i)
		}
	}
}
