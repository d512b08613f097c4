package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"wmsketch/internal/frame"
	"wmsketch/internal/linear"
	"wmsketch/internal/stream"
)

// planted describes a synthetic linear-model stream for recovery tests.
type planted struct {
	weights map[uint32]float64
	keys    []uint32
	rng     *rand.Rand
	d       int
	nnz     int
}

func newPlanted(d, nnz int, weights map[uint32]float64, seed int64) *planted {
	keys := make([]uint32, 0, len(weights))
	for k := range weights {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return &planted{
		weights: weights,
		keys:    keys,
		rng:     rand.New(rand.NewSource(seed)),
		d:       d,
		nnz:     nnz,
	}
}

// next draws x with nnz unit features — with probability 0.8 one of them is
// a planted signal feature — and labels from the noiseless sign of the
// planted model (random when no signal feature is present).
func (p *planted) next() stream.Example {
	x := make(stream.Vector, 0, p.nnz)
	seen := map[uint32]bool{}
	if p.rng.Float64() < 0.8 {
		k := p.keys[p.rng.Intn(len(p.keys))]
		seen[k] = true
		x = append(x, stream.Feature{Index: k, Value: 1})
	}
	for len(x) < p.nnz {
		i := uint32(p.rng.Intn(p.d))
		if seen[i] || p.weights[i] != 0 {
			continue
		}
		seen[i] = true
		x = append(x, stream.Feature{Index: i, Value: 1})
	}
	margin := 0.0
	for _, f := range x {
		margin += p.weights[f.Index] * f.Value
	}
	y := 1
	if margin < 0 {
		y = -1
	} else if margin == 0 && p.rng.Intn(2) == 0 {
		y = -1
	}
	return stream.Example{X: x, Y: y}
}

func defaultPlantedWeights() map[uint32]float64 {
	return map[uint32]float64{
		3:   4.0,
		17:  -3.5,
		42:  3.0,
		99:  -2.5,
		123: 2.0,
	}
}

func TestWMSketchRecoversPlantedSigns(t *testing.T) {
	weights := defaultPlantedWeights()
	gen := newPlanted(1000, 5, weights, 1)
	w := NewWMSketch(Config{Width: 512, Depth: 3, HeapSize: 64, Lambda: 1e-5, Seed: 7})
	for i := 0; i < 20000; i++ {
		ex := gen.next()
		w.Update(ex.X, ex.Y)
	}
	for i, want := range weights {
		got := w.Estimate(i)
		if got*want <= 0 {
			t.Errorf("feature %d: estimate %g disagrees in sign with planted %g", i, got, want)
		}
	}
	// The planted features must dominate the top-K.
	top := w.TopK(5)
	found := 0
	for _, e := range top {
		if _, ok := weights[e.Index]; ok {
			found++
		}
	}
	if found < 4 {
		t.Errorf("only %d/5 planted features in top-5: %+v", found, top)
	}
}

func TestWMSketchClassifiesPlantedStream(t *testing.T) {
	gen := newPlanted(1000, 5, defaultPlantedWeights(), 2)
	w := NewWMSketch(Config{Width: 256, Depth: 2, HeapSize: 32, Lambda: 1e-6, Seed: 3})
	mistakes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		ex := gen.next()
		if w.Predict(ex.X)*float64(ex.Y) <= 0 {
			mistakes++
		}
		w.Update(ex.X, ex.Y)
	}
	// 80% of examples carry a deterministic signal feature and 20% have
	// random labels, so the Bayes floor is 10%; chance is 50%.
	rate := float64(mistakes) / n
	if rate > 0.3 {
		t.Fatalf("online error rate %.3f not far better than chance", rate)
	}
}

func TestWMSketchMatchesLogRegWhenLossless(t *testing.T) {
	// With width ≥ d and depth 1 there can still be collisions, so use a
	// huge width: every feature gets its own bucket w.h.p. and the WM-Sketch
	// should track uncompressed logistic regression almost exactly.
	const d = 20
	w := NewWMSketch(Config{Width: 1 << 14, Depth: 1, HeapSize: d, Lambda: 1e-4, Seed: 11,
		Schedule: linear.Constant{Eta0: 0.1}})
	lr := linear.NewLogReg(linear.LogRegConfig{Lambda: 1e-4, Schedule: linear.Constant{Eta0: 0.1}})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		x := stream.Vector{
			{Index: uint32(rng.Intn(d)), Value: rng.NormFloat64()},
			{Index: uint32(rng.Intn(d)), Value: rng.NormFloat64()},
		}
		y := 1
		if x[0].Value+x[1].Value < 0 {
			y = -1
		}
		w.Update(x, y)
		lr.Update(x, y)
	}
	for i := uint32(0); i < d; i++ {
		got, want := w.Estimate(i), lr.Estimate(i)
		if math.Abs(got-want) > 0.02*(1+math.Abs(want)) {
			t.Errorf("feature %d: WM %g vs LR %g", i, got, want)
		}
	}
}

func TestWMSketchScaleTrickEquivalence(t *testing.T) {
	// Lazy scaling and explicit per-bucket decay must produce identical
	// models (up to rounding).
	mk := func(noTrick bool) *WMSketch {
		return NewWMSketch(Config{Width: 128, Depth: 2, HeapSize: 16, Lambda: 1e-3,
			Seed: 9, NoScaleTrick: noTrick, Schedule: linear.Constant{Eta0: 0.1}})
	}
	lazy, explicit := mk(false), mk(true)
	gen := newPlanted(500, 4, defaultPlantedWeights(), 6)
	for i := 0; i < 2000; i++ {
		ex := gen.next()
		lazy.Update(ex.X, ex.Y)
		explicit.Update(ex.X, ex.Y)
	}
	for i := uint32(0); i < 500; i++ {
		a, b := lazy.Estimate(i), explicit.Estimate(i)
		if math.Abs(a-b) > 1e-6*(1+math.Abs(b)) {
			t.Fatalf("feature %d: lazy %g vs explicit %g", i, a, b)
		}
	}
}

func TestWMSketchRenormalizationStability(t *testing.T) {
	// Aggressive decay forces many renormalizations; estimates must stay
	// finite and the scale bounded.
	w := NewWMSketch(Config{Width: 64, Depth: 2, HeapSize: 8, Lambda: 0.5, Seed: 13,
		Schedule: linear.Constant{Eta0: 1.0}})
	x := stream.Vector{{Index: 1, Value: 1}}
	for i := 0; i < 500; i++ {
		w.Update(x, 1)
	}
	if got := w.Estimate(1); !frame.Finite(got) {
		t.Fatalf("estimate diverged: %g", got)
	}
	if w.Scale() < minScale || w.Scale() > 1 {
		t.Fatalf("scale %g outside (%g, 1]", w.Scale(), minScale)
	}
}

func TestWMSketchZeroLambdaMatchesCountSketchScaling(t *testing.T) {
	// With λ=0, constant rate η, and loss gradient treated as the Count-
	// Sketch scaling constant (Section 5.1), a single one-hot update must
	// move the estimate by exactly η·|ℓ'(0)| in the right direction.
	w := NewWMSketch(Config{Width: 128, Depth: 3, HeapSize: 8, Seed: 17,
		Schedule: linear.Constant{Eta0: 0.2}})
	w.Update(stream.OneHot(5), 1)
	// Logistic ℓ'(0) = −0.5 ⇒ Δw₅ = −η·y·ℓ'·x = 0.2·0.5 = 0.1.
	if got := w.Estimate(5); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("estimate after one update = %g, want 0.1", got)
	}
	if w.Steps() != 1 {
		t.Fatalf("Steps = %d", w.Steps())
	}
}

func TestWMSketchDepthDisambiguates(t *testing.T) {
	// With one row and tiny width, collisions corrupt estimates; more rows
	// should reduce the worst-case error for planted features. Run both and
	// compare total absolute error.
	weights := defaultPlantedWeights()
	errFor := func(depth, width int) float64 {
		gen := newPlanted(2000, 5, weights, 21)
		w := NewWMSketch(Config{Width: width, Depth: depth, HeapSize: 16, Lambda: 1e-5, Seed: 23})
		for i := 0; i < 15000; i++ {
			ex := gen.next()
			w.Update(ex.X, ex.Y)
		}
		total := 0.0
		for i, want := range weights {
			total += math.Abs(w.Estimate(i) - want)
		}
		return total
	}
	shallow := errFor(1, 64)
	deep := errFor(4, 64) // same total size 256 vs 64: deeper AND wider total
	if deep > shallow*1.5 {
		t.Fatalf("deep sketch (err %.3f) much worse than shallow (err %.3f)", deep, shallow)
	}
}

func TestWMSketchMemoryBytes(t *testing.T) {
	w := NewWMSketch(Config{Width: 128, Depth: 2, HeapSize: 128})
	want := 4*128*2 + 8*128
	if got := w.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestWMSketchConfigValidation(t *testing.T) {
	bad := []Config{
		{Width: 0, Depth: 1, HeapSize: 1},
		{Width: 1, Depth: 0, HeapSize: 1},
		{Width: 1, Depth: 1, HeapSize: 0},
		{Width: 1, Depth: 1, HeapSize: 1, Lambda: -1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: expected panic", i)
				}
			}()
			NewWMSketch(cfg)
		}()
	}
}

func TestWMSketchBadLabelPanics(t *testing.T) {
	w := NewWMSketch(Config{Width: 16, Depth: 1, HeapSize: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for label 0")
		}
	}()
	w.Update(stream.OneHot(1), 0)
}

func TestWMSketchTopKDescending(t *testing.T) {
	gen := newPlanted(300, 5, defaultPlantedWeights(), 31)
	w := NewWMSketch(Config{Width: 256, Depth: 2, HeapSize: 32, Lambda: 1e-6, Seed: 37})
	for i := 0; i < 5000; i++ {
		ex := gen.next()
		w.Update(ex.X, ex.Y)
	}
	top := w.TopK(10)
	for i := 1; i < len(top); i++ {
		if math.Abs(top[i].Weight) > math.Abs(top[i-1].Weight)+1e-12 {
			t.Fatalf("TopK not descending at %d", i)
		}
	}
}

func BenchmarkWMSketchUpdate(b *testing.B) {
	gen := newPlanted(100000, 10, defaultPlantedWeights(), 1)
	examples := make([]stream.Example, 4096)
	for i := range examples {
		examples[i] = gen.next()
	}
	w := NewWMSketch(Config{Width: 1024, Depth: 4, HeapSize: 128, Lambda: 1e-6, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := examples[i&4095]
		w.Update(ex.X, ex.Y)
	}
}
