package core

import (
	"math"

	"wmsketch/internal/linear"
	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
	"wmsketch/internal/topk"
)

// AWMSketch is the Active-Set Weight-Median Sketch of Algorithm 2. The
// heaviest weights live exactly in a fixed-capacity min-heap (the active
// set); the sketch estimates only the tail. Heap-resident features are
// updated exactly and lazily written back into the sketch on eviction,
// which reduces collision error for precisely the features that cause the
// most damage. Empirically this variant dominates the basic WM-Sketch in
// both recovery and classification accuracy (Section 7).
type AWMSketch struct {
	cfg      Config
	cs       *sketch.CountSketch
	loss     linear.Loss
	schedule linear.Schedule
	sqrtS    float64
	scale    float64 // global decay α applied to both heap and sketch
	t        int64
	active   *topk.Heap // exact weights, stored unscaled
	// Per-example scratch reused by the fused Update so that every feature
	// is hashed and heap-probed exactly once per example in the common case.
	// refBuf[i] holds feature i's heap reference from the predict pass
	// (topk.NoRef for misses, whose sketch locations are in locBuf instead).
	locBuf    []sketch.Loc
	refBuf    []topk.Ref
	spareLocs []sketch.Loc // fallback for features evicted mid-example
}

// NewAWMSketch returns an AWM-Sketch with the given configuration.
func NewAWMSketch(cfg Config) *AWMSketch {
	return NewGeometry(cfg).NewAWMSketch()
}

// NewAWMSketch returns an AWM-Sketch of g's configuration whose sketch
// shares g's hash family.
func (g *Geometry) NewAWMSketch() *AWMSketch {
	return newAWMSketch(g.cfg, g.sk.New())
}

// newAWMSketch returns an AWM-Sketch of the filled configuration cfg over
// cs, a sketch of cfg's geometry, with an empty active set.
func newAWMSketch(cfg Config, cs *sketch.CountSketch) *AWMSketch {
	return &AWMSketch{
		cfg:       cfg,
		cs:        cs,
		loss:      cfg.Loss,
		schedule:  cfg.Schedule,
		sqrtS:     math.Sqrt(float64(cfg.Depth)),
		scale:     1,
		active:    topk.New(cfg.HeapSize),
		spareLocs: make([]sketch.Loc, cfg.Depth),
	}
}

// Predict returns the margin: exact heap weights for active-set features
// plus the compressed inner product zᵀRx over the remaining features
// (Algorithm 2's τ).
func (a *AWMSketch) Predict(x stream.Vector) float64 {
	dot := 0.0
	for _, f := range x {
		if w, ok := a.active.Get(f.Index); ok {
			dot += w * f.Value
		} else {
			dot += f.Value * a.cs.SumSigned(f.Index) / a.sqrtS
		}
	}
	return dot * a.scale
}

// Update applies one Algorithm 2 step: gradient updates to heap-resident
// features, lazy ℓ2 decay of heap and sketch via the shared global scale,
// and per-feature promote-or-sketch decisions for non-resident features.
//
// The prediction is fused into the update: the predict pass records each
// non-resident feature's sketch locations, and the gradient pass reuses
// them, so every (feature, example) pair is hashed exactly once. Depth-1
// sketches (the paper's uniformly-best configuration) take a dedicated path
// with no row loop, median, or √s arithmetic. Both paths are bit-identical
// to the textbook Predict-then-Update formulation.
func (a *AWMSketch) Update(x stream.Vector, y int) {
	if a.cs.Depth() == 1 {
		a.updateDepth1(x, y)
		return
	}
	ys := sgn(y)
	a.t++
	eta := a.schedule.Rate(a.t)

	// Predict pass: exact weights for active-set hits, sketch reads (with
	// location capture) for the tail. Heap refs and sketch locations are
	// recorded so the gradient pass repeats neither the probe nor the hash.
	s := a.cs.Depth()
	locAll, refs := a.ensureBufs(len(x))
	dot := 0.0
	for i, f := range x {
		if r, ok := a.active.GetRef(f.Index); ok {
			refs[i] = r
			dot += a.active.WeightRef(r) * f.Value
		} else {
			refs[i] = topk.NoRef
			l := locAll[i*s : (i+1)*s]
			a.cs.Locate(f.Index, l)
			dot += f.Value * a.cs.SumAt(l) / a.sqrtS
		}
	}
	margin := ys * (dot * a.scale)
	g := a.loss.Deriv(margin)

	// Regularization: S ← (1−λη)S and z ← (1−λη)z, applied lazily; the
	// factor is clamped at 0 so aggressive (η, λ) cannot sign-flip the model.
	if a.cfg.Lambda > 0 {
		decay := decayFactor(eta, a.cfg.Lambda)
		if a.cfg.NoScaleTrick {
			a.cs.Scale(decay)
			a.active.ScaleWeights(decay)
		} else {
			a.scale *= decay
			if a.scale < minScale {
				a.renormalize()
			}
		}
	}

	// step is the true-space gradient step magnitude −ηy g (per unit x_f),
	// expressed in unscaled storage units.
	effScale := a.scale
	if a.cfg.NoScaleTrick {
		effScale = 1
	}
	step := eta * ys * g / effScale

	// refsValid: no structural heap change has occurred since the predict
	// pass, so the recorded refs (and recorded misses) are still accurate.
	// The first promotion or eviction invalidates them and later features
	// fall back to a fresh probe — exactly the accesses the unfused
	// formulation would make.
	refsValid := true
	for i, f := range x {
		if f.Value == 0 {
			continue
		}
		r := refs[i]
		if !refsValid {
			r, _ = a.active.GetRef(f.Index)
		}
		if r != topk.NoRef {
			// Heap update: S[i] ← S[i] − ηy∇ℓ·xᵢ (exact).
			if g != 0 {
				a.active.UpdateMagnitudeRef(r, a.active.WeightRef(r)-step*f.Value)
			}
			continue
		}
		var l []sketch.Loc
		if refs[i] == topk.NoRef {
			l = locAll[i*s : (i+1)*s]
		} else {
			// The feature was heap-resident at predict time but has been
			// evicted by a duplicate index earlier in this example; hash it
			// now (rare).
			l = a.spareLocs
			a.cs.Locate(f.Index, l)
		}
		// Candidate weight for promotion: w̃ ← Query(i) − ηy xᵢ∇ℓ(yτ).
		wTilde := a.sqrtS*a.cs.EstimateAt(l) - step*f.Value

		if !a.active.Full() {
			// Free heap slot: promote unconditionally. The feature's stale
			// sketched mass remains in the sketch (per Algorithm 2) and is
			// reconciled on eviction.
			a.active.InsertMagnitude(f.Index, wTilde)
			refsValid = false
			continue
		}
		min, _ := a.active.Min()
		if absf(wTilde) > min.Score {
			// Evict the smallest heap entry and write its weight back into
			// the sketch as a delta: sketch(imin) += S[imin] − Query(imin),
			// restoring Query(imin) ≈ S[imin].
			a.active.PopMin()
			delta := min.Weight - a.queryUnscaled(min.Key)
			a.sketchAdd(min.Key, delta)
			a.active.InsertMagnitude(f.Index, wTilde)
			refsValid = false
		} else if g != 0 {
			// Not promoted: apply the gradient step to the sketch.
			a.cs.AddAt(l, (-step*f.Value)/a.sqrtS)
		}
	}
}

// updateDepth1 is Update specialized for Depth=1: one hash per non-resident
// feature, direct row access, no median, and no √s arithmetic (√1 = 1, so
// eliding it is exact).
func (a *AWMSketch) updateDepth1(x stream.Vector, y int) {
	ys := sgn(y)
	a.t++
	eta := a.schedule.Rate(a.t)

	cs := a.cs
	tab := cs.Hashes().Row(0)
	row := cs.Row(0)
	width := cs.Width()
	locs, refs := a.ensureBufs(len(x))

	dot := 0.0
	for i, f := range x {
		if r, ok := a.active.GetRef(f.Index); ok {
			refs[i] = r
			dot += a.active.WeightRef(r) * f.Value
		} else {
			refs[i] = topk.NoRef
			b, sign := tab.BucketSign(f.Index, width)
			locs[i] = sketch.Loc{Bucket: int32(b), Sign: sign}
			dot += f.Value * (sign * row[b])
		}
	}
	margin := ys * (dot * a.scale)
	g := a.loss.Deriv(margin)

	if a.cfg.Lambda > 0 {
		decay := decayFactor(eta, a.cfg.Lambda)
		if a.cfg.NoScaleTrick {
			cs.Scale(decay)
			a.active.ScaleWeights(decay)
		} else {
			a.scale *= decay
			if a.scale < minScale {
				a.renormalize()
			}
		}
	}

	effScale := a.scale
	if a.cfg.NoScaleTrick {
		effScale = 1
	}
	step := eta * ys * g / effScale

	refsValid := true
	for i, f := range x {
		if f.Value == 0 {
			continue
		}
		r := refs[i]
		if !refsValid {
			r, _ = a.active.GetRef(f.Index)
		}
		if r != topk.NoRef {
			if g != 0 {
				a.active.UpdateMagnitudeRef(r, a.active.WeightRef(r)-step*f.Value)
			}
			continue
		}
		var l sketch.Loc
		if refs[i] == topk.NoRef {
			l = locs[i]
		} else {
			b, sign := tab.BucketSign(f.Index, width)
			l = sketch.Loc{Bucket: int32(b), Sign: sign}
		}
		wTilde := l.Sign*row[l.Bucket] - step*f.Value

		if !a.active.Full() {
			a.active.InsertMagnitude(f.Index, wTilde)
			refsValid = false
			continue
		}
		min, _ := a.active.Min()
		if absf(wTilde) > min.Score {
			a.active.PopMin()
			mb, msign := tab.BucketSign(min.Key, width)
			delta := min.Weight - msign*row[mb]
			row[mb] += msign * delta
			a.active.InsertMagnitude(f.Index, wTilde)
			refsValid = false
		} else if g != 0 {
			row[l.Bucket] += l.Sign * (-step * f.Value)
		}
	}
}

// ensureBufs returns the per-example scratch buffers grown to cover n
// features at the sketch's depth.
func (a *AWMSketch) ensureBufs(n int) ([]sketch.Loc, []topk.Ref) {
	need := n * a.cs.Depth()
	if cap(a.locBuf) < need {
		a.locBuf = make([]sketch.Loc, need)
	}
	if cap(a.refBuf) < n {
		a.refBuf = make([]topk.Ref, n)
	}
	return a.locBuf[:need], a.refBuf[:n]
}

// sketchAdd adds delta (in unscaled storage units) to feature i's sketched
// weight; the per-bucket increment carries the 1/√s projection factor so
// that queryUnscaled returns √s·median ≈ delta.
func (a *AWMSketch) sketchAdd(i uint32, delta float64) {
	a.cs.Update(i, delta/a.sqrtS)
}

// queryUnscaled returns the sketch's tail estimate for i in unscaled units.
func (a *AWMSketch) queryUnscaled(i uint32) float64 {
	return a.sqrtS * a.cs.Estimate(i)
}

// Estimate returns the model's weight estimate for feature i: exact when i
// is in the active set, the Count-Sketch median query otherwise.
func (a *AWMSketch) Estimate(i uint32) float64 {
	if w, ok := a.active.Get(i); ok {
		return w * a.scale
	}
	return a.scale * a.queryUnscaled(i)
}

// TopK returns the k heaviest active-set features, descending by |weight|.
func (a *AWMSketch) TopK(k int) []stream.Weighted {
	entries := a.active.TopK(k)
	out := make([]stream.Weighted, len(entries))
	for i, e := range entries {
		out[i] = stream.Weighted{Index: e.Key, Weight: e.Weight * a.scale}
	}
	return out
}

// InActiveSet reports whether feature i currently resides in the heap.
func (a *AWMSketch) InActiveSet(i uint32) bool { return a.active.Contains(i) }

// ActiveSetSize returns the number of features in the active set.
func (a *AWMSketch) ActiveSetSize() int { return a.active.Len() }

// renormalize folds the global scale into heap and sketch.
func (a *AWMSketch) renormalize() {
	a.cs.Scale(a.scale)
	a.active.ScaleWeights(a.scale)
	a.scale = 1
}

// Steps returns the number of updates applied.
func (a *AWMSketch) Steps() int64 { return a.t }

// Scale exposes the global decay factor for tests.
func (a *AWMSketch) Scale() float64 { return a.scale }

// Sketch exposes the backing Count-Sketch for white-box tests.
func (a *AWMSketch) Sketch() *sketch.CountSketch { return a.cs }

// MemoryBytes reports the Section 7.1 footprint: sketch buckets plus
// id+weight per active-set slot.
func (a *AWMSketch) MemoryBytes() int {
	return a.cs.MemoryBytes() + a.active.MemoryBytes(false)
}
