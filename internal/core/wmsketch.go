package core

import (
	"math"

	"wmsketch/internal/linear"
	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
	"wmsketch/internal/topk"
)

// WMSketch is the Weight-Median Sketch of Algorithm 1: a Count-Sketch
// data structure updated by online gradient descent on the projected
// classification objective, supporting median-query recovery of individual
// weights. A passive magnitude heap tracks the heaviest estimates seen so
// far so that TopK queries do not require enumerating the feature space.
type WMSketch struct {
	cfg      Config
	cs       *sketch.CountSketch
	loss     linear.Loss
	schedule linear.Schedule
	sqrtS    float64
	scale    float64 // global decay factor α; true z = scale · stored z
	t        int64
	heap     *topk.Heap // passive top-weight tracking (unscaled scores)
	// locBuf holds each feature's (bucket, sign) locations for the example
	// being processed, so Update hashes each feature exactly once and reuses
	// the locations for the margin read, the gradient write, and the heap
	// refresh. Grown on demand; never shared across goroutines.
	locBuf []sketch.Loc
}

// NewWMSketch returns a WM-Sketch with the given configuration.
func NewWMSketch(cfg Config) *WMSketch {
	cfg.fill()
	return newWMSketch(cfg, sketch.NewCountSketch(cfg.Depth, cfg.Width, cfg.Seed))
}

// newWMSketch returns a WM-Sketch of the filled configuration cfg over cs,
// a sketch of cfg's geometry, with an empty heap.
func newWMSketch(cfg Config, cs *sketch.CountSketch) *WMSketch {
	return &WMSketch{
		cfg:      cfg,
		cs:       cs,
		loss:     cfg.Loss,
		schedule: cfg.Schedule,
		sqrtS:    math.Sqrt(float64(cfg.Depth)),
		scale:    1,
		heap:     topk.New(cfg.HeapSize),
	}
}

// Predict returns the margin τ = zᵀRx of the compressed classifier.
// Expanding the projection, τ = (α/√s)·Σ_f x_f · Σⱼ σⱼ(f)·z[j][hⱼ(f)].
//
// Depth-1 sketches take a dedicated path (the serving hot path): the row,
// hash table, and width are hoisted out of the loop and the √1 = 1 division
// is elided, which is exact, so the result is bit-identical to the general
// path (asserted by the equivalence tests).
func (w *WMSketch) Predict(x stream.Vector) float64 {
	if w.cs.Depth() == 1 {
		tab := w.cs.Hashes().Row(0)
		row := w.cs.Row(0)
		width := w.cs.Width()
		dot := 0.0
		for _, f := range x {
			b, sign := tab.BucketSign(f.Index, width)
			dot += f.Value * (sign * row[b])
		}
		return dot * w.scale
	}
	dot := 0.0
	for _, f := range x {
		dot += f.Value * w.cs.SumSigned(f.Index)
	}
	return dot * w.scale / w.sqrtS
}

// Update applies one online gradient descent step on example (x, y):
//
//	z ← (1−ληₜ)z − ηₜ·y·ℓ'(y·zᵀRx)·Rx
//
// using the lazy global-scale trick for the decay term, so the cost is
// O(s·nnz(x)) (plus heap maintenance).
//
// The implementation fuses the prediction into the update: each feature is
// hashed exactly once per example, and the recorded (bucket, sign)
// locations are reused for the margin, the gradient write, and the heap
// refresh. Depth-1 sketches take a dedicated path that also skips the √s
// scaling and the per-row loop. Both paths produce bit-identical results to
// the textbook Predict-then-Update formulation (asserted by the equivalence
// tests).
func (w *WMSketch) Update(x stream.Vector, y int) {
	if w.cs.Depth() == 1 {
		w.updateDepth1(x, y)
		return
	}
	ys := sgn(y)
	w.t++
	eta := w.schedule.Rate(w.t)

	s := w.cs.Depth()
	locs := w.ensureLocs(len(x) * s)
	dot := 0.0
	for i, f := range x {
		l := locs[i*s : (i+1)*s]
		w.cs.Locate(f.Index, l)
		dot += f.Value * w.cs.SumAt(l)
	}
	margin := ys * (dot * w.scale / w.sqrtS)
	g := w.loss.Deriv(margin)

	if w.cfg.Lambda > 0 {
		decay := decayFactor(eta, w.cfg.Lambda)
		if w.cfg.NoScaleTrick {
			w.cs.Scale(decay)
			w.heap.ScaleWeights(decay)
		} else {
			w.scale *= decay
			if w.scale < minScale {
				w.renormalize()
			}
		}
	}
	if g != 0 {
		// Gradient term: each feature f contributes −η·y·g·x_f·(1/√s) to its
		// signed buckets; divide by scale because buckets store unscaled z.
		step := eta * ys * g / (w.sqrtS * w.scale)
		if w.cfg.NoScaleTrick {
			step = eta * ys * g / w.sqrtS
		}
		for i, f := range x {
			w.cs.AddAt(locs[i*s:(i+1)*s], -step*f.Value)
		}
	}
	// Passively refresh the heap with the touched features' new estimates.
	for i, f := range x {
		w.offerToHeap(f.Index, w.sqrtS*w.cs.EstimateAt(locs[i*s:(i+1)*s]))
	}
}

// updateDepth1 is Update specialized for Depth=1: one hash per feature, no
// row loop, no median, and no √s multiplies (√1 = 1, so eliding them is
// exact).
func (w *WMSketch) updateDepth1(x stream.Vector, y int) {
	ys := sgn(y)
	w.t++
	eta := w.schedule.Rate(w.t)

	cs := w.cs
	tab := cs.Hashes().Row(0)
	row := cs.Row(0)
	width := cs.Width()
	locs := w.ensureLocs(len(x))

	dot := 0.0
	for i, f := range x {
		b, sign := tab.BucketSign(f.Index, width)
		locs[i] = sketch.Loc{Bucket: int32(b), Sign: sign}
		dot += f.Value * (sign * row[b])
	}
	margin := ys * (dot * w.scale)
	g := w.loss.Deriv(margin)

	if w.cfg.Lambda > 0 {
		decay := decayFactor(eta, w.cfg.Lambda)
		if w.cfg.NoScaleTrick {
			cs.Scale(decay)
			w.heap.ScaleWeights(decay)
		} else {
			w.scale *= decay
			if w.scale < minScale {
				w.renormalize()
			}
		}
	}
	if g != 0 {
		step := eta * ys * g / w.scale
		if w.cfg.NoScaleTrick {
			step = eta * ys * g
		}
		for i, f := range x {
			l := locs[i]
			row[l.Bucket] += l.Sign * (-step * f.Value)
		}
	}
	for i, f := range x {
		l := locs[i]
		w.offerToHeap(f.Index, l.Sign*row[l.Bucket])
	}
}

// ensureLocs returns the reusable location buffer grown to at least n.
func (w *WMSketch) ensureLocs(n int) []sketch.Loc {
	if cap(w.locBuf) < n {
		w.locBuf = make([]sketch.Loc, n)
	}
	return w.locBuf[:n]
}

// offerToHeap inserts or refreshes feature i with est, its current unscaled
// estimate. Unscaled values keep heap ordering consistent across decay.
// A single index probe covers both the membership test and the update.
func (w *WMSketch) offerToHeap(i uint32, est float64) {
	if r, ok := w.heap.GetRef(i); ok {
		w.heap.UpdateMagnitudeRef(r, est)
		return
	}
	if !w.heap.Full() {
		w.heap.InsertMagnitude(i, est)
		return
	}
	if min, _ := w.heap.Min(); absf(est) > min.Score {
		w.heap.PopMin()
		w.heap.InsertMagnitude(i, est)
	}
}

// queryUnscaled is the Count-Sketch median query scaled by √s but not by the
// global decay factor.
func (w *WMSketch) queryUnscaled(i uint32) float64 {
	return w.sqrtS * w.cs.Estimate(i)
}

// Estimate returns the recovered weight ŵᵢ: the median over rows of
// √s·σⱼ(i)·z[j][hⱼ(i)], times the global scale (Algorithm 1's Query).
func (w *WMSketch) Estimate(i uint32) float64 {
	return w.scale * w.queryUnscaled(i)
}

// TopK returns the k heaviest features tracked by the passive heap, with
// fresh sketch estimates, in descending |weight| order.
func (w *WMSketch) TopK(k int) []stream.Weighted {
	entries := w.heap.Entries()
	out := make([]stream.Weighted, 0, len(entries))
	for _, e := range entries {
		out = append(out, stream.Weighted{Index: e.Key, Weight: w.Estimate(e.Key)})
	}
	stream.SortWeighted(out)
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// renormalize folds the global scale into the bucket array; O(k).
func (w *WMSketch) renormalize() {
	w.cs.Scale(w.scale)
	w.heap.ScaleWeights(w.scale)
	w.scale = 1
}

// Steps returns the number of updates applied.
func (w *WMSketch) Steps() int64 { return w.t }

// Scale exposes the current global decay factor (diagnostics and tests).
func (w *WMSketch) Scale() float64 { return w.scale }

// Sketch exposes the backing Count-Sketch (white-box tests, ablations).
func (w *WMSketch) Sketch() *sketch.CountSketch { return w.cs }

// MemoryBytes reports the Section 7.1 cost-model footprint: 4 bytes per
// sketch bucket plus id+weight per heap slot.
func (w *WMSketch) MemoryBytes() int {
	return w.cs.MemoryBytes() + w.heap.MemoryBytes(false)
}
