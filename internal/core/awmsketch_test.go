package core

import (
	"math"
	"math/rand"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/frame"
	"wmsketch/internal/linear"
	"wmsketch/internal/stream"
)

func TestAWMSketchRecoversPlantedWeights(t *testing.T) {
	weights := defaultPlantedWeights()
	gen := newPlanted(1000, 5, weights, 41)
	a := NewAWMSketch(Config{Width: 256, Depth: 1, HeapSize: 128, Lambda: 1e-5, Seed: 43})
	for i := 0; i < 20000; i++ {
		ex := gen.next()
		a.Update(ex.X, ex.Y)
	}
	// All planted features should be in the active set with correct signs.
	for i, want := range weights {
		if !a.InActiveSet(i) {
			t.Errorf("planted feature %d not in active set", i)
			continue
		}
		got := a.Estimate(i)
		if got*want <= 0 {
			t.Errorf("feature %d: estimate %g disagrees in sign with %g", i, got, want)
		}
	}
	top := a.TopK(5)
	found := 0
	for _, e := range top {
		if _, ok := weights[e.Index]; ok {
			found++
		}
	}
	if found < 4 {
		t.Errorf("only %d/5 planted in top-5: %+v", found, top)
	}
}

func TestAWMSketchBeatsWMOnRecovery(t *testing.T) {
	// The headline empirical claim (Section 7.2): under the same memory,
	// AWM recovery error ≤ WM recovery error. Compare summed absolute error
	// on planted weights with matched budgets.
	weights := defaultPlantedWeights()
	sumErr := func(l stream.Learner) float64 {
		gen := newPlanted(2000, 5, weights, 47)
		for i := 0; i < 25000; i++ {
			ex := gen.next()
			l.Update(ex.X, ex.Y)
		}
		total := 0.0
		for i, want := range weights {
			total += math.Abs(l.Estimate(i) - want)
		}
		return total
	}
	// 2KB-style budget: WM = heap 64 + 2×128 sketch; AWM = heap 64 + 1×256.
	wmErr := sumErr(NewWMSketch(Config{Width: 128, Depth: 2, HeapSize: 64, Lambda: 1e-5, Seed: 53}))
	awmErr := sumErr(NewAWMSketch(Config{Width: 256, Depth: 1, HeapSize: 64, Lambda: 1e-5, Seed: 53}))
	if awmErr > wmErr*1.25 {
		t.Fatalf("AWM error %.4f much worse than WM %.4f", awmErr, wmErr)
	}
}

func TestAWMSketchActiveSetExactWithoutCollisedTail(t *testing.T) {
	// When everything fits in the heap, AWM is exact online LR (no sketch
	// involvement) — compare against linear.LogReg.
	const d = 16
	a := NewAWMSketch(Config{Width: 64, Depth: 1, HeapSize: d, Lambda: 1e-4, Seed: 59,
		Schedule: linear.Constant{Eta0: 0.1}})
	lr := linear.NewLogReg(linear.LogRegConfig{Lambda: 1e-4, Schedule: linear.Constant{Eta0: 0.1}})
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 2000; i++ {
		x := stream.Vector{
			{Index: uint32(rng.Intn(d)), Value: rng.NormFloat64()},
			{Index: uint32(rng.Intn(d)), Value: rng.NormFloat64()},
		}
		y := 1
		if x[0].Value-x[1].Value < 0 {
			y = -1
		}
		a.Update(x, y)
		lr.Update(x, y)
	}
	for i := uint32(0); i < d; i++ {
		got, want := a.Estimate(i), lr.Estimate(i)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("feature %d: AWM %g vs LR %g (should be exact)", i, got, want)
		}
	}
}

func TestAWMSketchEvictionWritesBack(t *testing.T) {
	// Build a tiny heap, force an eviction, and check the evicted feature's
	// weight is approximately recoverable from the sketch afterwards.
	a := NewAWMSketch(Config{Width: 1 << 12, Depth: 1, HeapSize: 2, Seed: 67,
		Schedule: linear.Constant{Eta0: 1.0}})
	// Feature 1 gets weight ~0.5 (one logistic step at margin 0), then
	// feature 2 bigger, then feature 3 biggest forces eviction of the
	// smallest.
	a.Update(stream.OneHot(1), 1) // w1 = 0.5
	a.Update(stream.Vector{{Index: 2, Value: 2}}, 1)
	a.Update(stream.Vector{{Index: 3, Value: 5}}, 1)
	if a.ActiveSetSize() != 2 {
		t.Fatalf("active set size %d, want 2", a.ActiveSetSize())
	}
	if a.InActiveSet(1) {
		t.Fatal("feature 1 (smallest) should have been evicted")
	}
	// Its weight must live on in the sketch.
	got := a.Estimate(1)
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("evicted feature estimate %g, want ≈0.5", got)
	}
}

func TestAWMSketchPromotionUsesSketchEstimate(t *testing.T) {
	// A feature that accumulates weight in the sketch and is then promoted
	// must carry its sketched estimate into the heap (w̃ = Query − step).
	a := NewAWMSketch(Config{Width: 1 << 12, Depth: 1, HeapSize: 2, Seed: 71,
		Schedule: linear.Constant{Eta0: 1.0}})
	// Fill the heap with two heavy features.
	a.Update(stream.Vector{{Index: 10, Value: 10}}, 1)
	a.Update(stream.Vector{{Index: 11, Value: 10}}, 1)
	// Feature 5 accumulates in the sketch via small updates.
	for i := 0; i < 40; i++ {
		a.Update(stream.Vector{{Index: 5, Value: 0.2}}, 1)
	}
	w5 := a.Estimate(5)
	if w5 <= 0 {
		t.Fatalf("sketched weight for feature 5 = %g, want positive", w5)
	}
	// A large negative-label update drives a big gradient (the logistic
	// derivative is ≈ −1 at a strongly violated margin), forcing promotion
	// with w̃ = Query(5) − step ≈ w5 − 30.
	a.Update(stream.Vector{{Index: 5, Value: 30}}, -1)
	if !a.InActiveSet(5) {
		t.Fatal("feature 5 not promoted")
	}
	got := a.Estimate(5)
	if got >= 0 {
		t.Fatalf("promoted weight %g, want strongly negative", got)
	}
	if math.Abs(got-(w5-30)) > 1.0 {
		t.Fatalf("promoted weight %g, want ≈ %g (sketched estimate carried over)", got, w5-30)
	}
}

func TestAWMSketchScaleTrickEquivalence(t *testing.T) {
	mk := func(noTrick bool) *AWMSketch {
		return NewAWMSketch(Config{Width: 128, Depth: 1, HeapSize: 32, Lambda: 1e-3,
			Seed: 73, NoScaleTrick: noTrick, Schedule: linear.Constant{Eta0: 0.1}})
	}
	lazy, explicit := mk(false), mk(true)
	gen := newPlanted(500, 4, defaultPlantedWeights(), 79)
	for i := 0; i < 3000; i++ {
		ex := gen.next()
		lazy.Update(ex.X, ex.Y)
		explicit.Update(ex.X, ex.Y)
	}
	for i := uint32(0); i < 500; i++ {
		x, y := lazy.Estimate(i), explicit.Estimate(i)
		if math.Abs(x-y) > 1e-6*(1+math.Abs(y)) {
			t.Fatalf("feature %d: lazy %g vs explicit %g", i, x, y)
		}
	}
}

func TestAWMSketchPredictSplitsHeapAndSketch(t *testing.T) {
	a := NewAWMSketch(Config{Width: 1 << 12, Depth: 1, HeapSize: 1, Seed: 83,
		Schedule: linear.Constant{Eta0: 1.0}})
	a.Update(stream.OneHot(1), 1) // heap: {1: 0.5}
	// Feature 2 is forced to the sketch (heap full, weight smaller).
	a.Update(stream.Vector{{Index: 2, Value: 0.1}}, 1)
	if !a.InActiveSet(1) || a.InActiveSet(2) {
		t.Fatal("unexpected active set membership")
	}
	// Prediction over both features must combine heap and sketch parts.
	pred := a.Predict(stream.Vector{{Index: 1, Value: 1}, {Index: 2, Value: 1}})
	want := a.Estimate(1) + a.Estimate(2)
	if math.Abs(pred-want) > 1e-9 {
		t.Fatalf("Predict = %g, want %g (sum of estimates, depth 1)", pred, want)
	}
}

func TestAWMSketchOnlineErrorBeatsChance(t *testing.T) {
	gen := newPlanted(1000, 5, defaultPlantedWeights(), 89)
	a := NewAWMSketch(Config{Width: 256, Depth: 1, HeapSize: 128, Lambda: 1e-6, Seed: 97})
	mistakes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		ex := gen.next()
		if a.Predict(ex.X)*float64(ex.Y) <= 0 {
			mistakes++
		}
		a.Update(ex.X, ex.Y)
	}
	if rate := float64(mistakes) / n; rate > 0.3 {
		t.Fatalf("online error %.3f not far better than chance", rate)
	}
}

func TestAWMSketchRenormalizationStability(t *testing.T) {
	a := NewAWMSketch(Config{Width: 64, Depth: 1, HeapSize: 8, Lambda: 0.5, Seed: 101,
		Schedule: linear.Constant{Eta0: 1.0}})
	for i := 0; i < 500; i++ {
		a.Update(stream.Vector{{Index: uint32(i % 20), Value: 1}}, 1)
	}
	for i := uint32(0); i < 20; i++ {
		if !frame.Finite(a.Estimate(i)) {
			t.Fatalf("estimate %d diverged", i)
		}
	}
	if a.Scale() < minScale || a.Scale() > 1 {
		t.Fatalf("scale %g out of range", a.Scale())
	}
}

func TestAWMSketchMemoryBytes(t *testing.T) {
	a := NewAWMSketch(Config{Width: 256, Depth: 1, HeapSize: 128})
	want := 4*256 + 8*128 // = 2048: the paper's 2KB AWM configuration
	if got := a.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestAWMSketchTopKFromActiveSet(t *testing.T) {
	gen := newPlanted(500, 5, defaultPlantedWeights(), 103)
	a := NewAWMSketch(Config{Width: 256, Depth: 1, HeapSize: 64, Lambda: 1e-6, Seed: 107})
	for i := 0; i < 10000; i++ {
		ex := gen.next()
		a.Update(ex.X, ex.Y)
	}
	top := a.TopK(10)
	if len(top) != 10 {
		t.Fatalf("TopK returned %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if math.Abs(top[i].Weight) > math.Abs(top[i-1].Weight)+1e-12 {
			t.Fatal("TopK not descending")
		}
	}
}

// BenchmarkAWMSketchUpdate times one fused update. planted is a depth-1
// learner on a planted-signal stream; ingest and mixed are the learners of
// perfbench's workloads of those names (geometry, heap, λ, seed and stream),
// warm-started on as many examples as the workloads' checkpoints hold.
func BenchmarkAWMSketchUpdate(b *testing.B) {
	b.Run("planted", func(b *testing.B) {
		gen := newPlanted(100000, 10, defaultPlantedWeights(), 1)
		examples := make([]stream.Example, 4096)
		for i := range examples {
			examples[i] = gen.next()
		}
		benchUpdate(b, Config{Width: 2048, Depth: 1, HeapSize: 1024, Lambda: 1e-6, Seed: 1}, nil, examples)
	})
	b.Run("ingest", func(b *testing.B) {
		gen := datagen.URLLike(5)
		benchUpdate(b, Config{Width: 1 << 17, Depth: 3, HeapSize: 2048, Lambda: 1e-6, Seed: 42},
			gen.Take(32768), gen.Take(4096))
	})
	b.Run("mixed", func(b *testing.B) {
		gen := datagen.RCV1Like(5)
		benchUpdate(b, Config{Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 42},
			gen.Take(16384), gen.Take(4096))
	})
}

// benchUpdate trains an AWM-Sketch on warm, then times updates cycling
// through examples (a power-of-two count).
func benchUpdate(b *testing.B, cfg Config, warm, examples []stream.Example) {
	a := NewAWMSketch(cfg)
	for _, ex := range warm {
		a.Update(ex.X, ex.Y)
	}
	mask := len(examples) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := examples[i&mask]
		a.Update(ex.X, ex.Y)
	}
}
