package core

// Equivalence tests for the fused hot path ("eXtreme Modelling" style: the
// optimized implementation is checked against an independent executable
// specification, not just benchmarked). refWM and refAWM below re-implement
// Algorithms 1 and 2 exactly as the textbook Predict-then-Update
// formulation — each feature is hashed on every access and the heap probed
// through the map-equivalent path. They share no sketch arithmetic with the
// kernel under test: they hash through Hashes(), take the sign from the
// hash's top bit with a branch, read and write buckets through Row(j), and
// take medians with sort.Float64s. The fused implementations (hash-once,
// depth-1 specialization, ref-based heap probing, branch-free sign and
// depth-3 median, flat bucket indexing) must produce bit-identical models:
// same sketch buckets, same estimates, same top-K, same scale and step
// count.

import (
	"math"
	"sort"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/linear"
	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
	"wmsketch/internal/topk"
)

// refLocate is row j's bucket and sign for key, from the textbook
// definitions over the raw tabulation hash.
func refLocate(cs *sketch.CountSketch, j int, key uint32) (int, float64) {
	h := cs.Hashes().Row(j).Hash(key)
	b := int((h & 0xffffffff) * uint64(cs.Width()) >> 32)
	if h>>63 == 1 {
		return b, -1
	}
	return b, 1
}

// refUpdate adds delta to key's bucket in every row, times the row's sign.
func refUpdate(cs *sketch.CountSketch, key uint32, delta float64) {
	for j := 0; j < cs.Depth(); j++ {
		b, sign := refLocate(cs, j, key)
		cs.Row(j)[b] += sign * delta
	}
}

// refSumSigned is Σⱼ σⱼ(key)·row[j][hⱼ(key)], summed from 0 over two or
// more rows.
func refSumSigned(cs *sketch.CountSketch, key uint32) float64 {
	if cs.Depth() == 1 {
		b, sign := refLocate(cs, 0, key)
		return sign * cs.Row(0)[b]
	}
	sum := 0.0
	for j := 0; j < cs.Depth(); j++ {
		b, sign := refLocate(cs, j, key)
		sum += sign * cs.Row(j)[b]
	}
	return sum
}

// refEstimate is the median of key's signed buckets: the middle element
// sort.Float64s leaves for an odd depth, the overflow-safe midpoint of the
// middle two for an even one.
func refEstimate(cs *sketch.CountSketch, key uint32) float64 {
	var buf [8]float64
	xs := buf[:cs.Depth()]
	for j := range xs {
		b, sign := refLocate(cs, j, key)
		xs[j] = sign * cs.Row(j)[b]
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	a, b := xs[n/2-1], xs[n/2]
	if m := (a + b) / 2; !math.IsInf(m, 0) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return m
	}
	return a/2 + b/2
}

// refScale multiplies every bucket by c.
func refScale(cs *sketch.CountSketch, c float64) {
	for j := 0; j < cs.Depth(); j++ {
		row := cs.Row(j)
		for b := range row {
			row[b] *= c
		}
	}
}

// refWM is the unfused WM-Sketch (Algorithm 1) reference.
type refWM struct {
	cfg      Config
	cs       *sketch.CountSketch
	loss     linear.Loss
	schedule linear.Schedule
	sqrtS    float64
	scale    float64
	t        int64
	heap     *topk.Heap
}

func newRefWM(cfg Config) *refWM {
	if cfg.Loss == nil {
		cfg.Loss = linear.Logistic{}
	}
	if cfg.Schedule == nil {
		cfg.Schedule = linear.DefaultSchedule()
	}
	return &refWM{
		cfg:      cfg,
		cs:       sketch.NewCountSketch(cfg.Depth, cfg.Width, cfg.Seed),
		loss:     cfg.Loss,
		schedule: cfg.Schedule,
		sqrtS:    math.Sqrt(float64(cfg.Depth)),
		scale:    1,
		heap:     topk.New(cfg.HeapSize),
	}
}

func (w *refWM) predict(x stream.Vector) float64 {
	dot := 0.0
	for _, f := range x {
		dot += f.Value * refSumSigned(w.cs, f.Index)
	}
	return dot * w.scale / w.sqrtS
}

func (w *refWM) update(x stream.Vector, y int) {
	ys := float64(y)
	w.t++
	eta := w.schedule.Rate(w.t)
	margin := ys * w.predict(x)
	g := w.loss.Deriv(margin)

	if w.cfg.Lambda > 0 {
		if w.cfg.NoScaleTrick {
			refScale(w.cs, 1-eta*w.cfg.Lambda)
			w.heap.ScaleWeights(1 - eta*w.cfg.Lambda)
		} else {
			w.scale *= 1 - eta*w.cfg.Lambda
			if w.scale < minScale {
				refScale(w.cs, w.scale)
				w.heap.ScaleWeights(w.scale)
				w.scale = 1
			}
		}
	}
	if g != 0 {
		step := eta * ys * g / (w.sqrtS * w.scale)
		if w.cfg.NoScaleTrick {
			step = eta * ys * g / w.sqrtS
		}
		for _, f := range x {
			refUpdate(w.cs, f.Index, -step*f.Value)
		}
	}
	for _, f := range x {
		w.offer(f.Index, w.sqrtS*refEstimate(w.cs, f.Index))
	}
}

func (w *refWM) offer(i uint32, est float64) {
	if w.heap.Contains(i) {
		w.heap.UpdateMagnitude(i, est)
		return
	}
	if !w.heap.Full() {
		w.heap.InsertMagnitude(i, est)
		return
	}
	if min, _ := w.heap.Min(); math.Abs(est) > min.Score {
		w.heap.PopMin()
		w.heap.InsertMagnitude(i, est)
	}
}

func (w *refWM) estimate(i uint32) float64 {
	return w.scale * (w.sqrtS * refEstimate(w.cs, i))
}

// refAWM is the unfused AWM-Sketch (Algorithm 2) reference.
type refAWM struct {
	cfg      Config
	cs       *sketch.CountSketch
	loss     linear.Loss
	schedule linear.Schedule
	sqrtS    float64
	scale    float64
	t        int64
	active   *topk.Heap
}

func newRefAWM(cfg Config) *refAWM {
	if cfg.Loss == nil {
		cfg.Loss = linear.Logistic{}
	}
	if cfg.Schedule == nil {
		cfg.Schedule = linear.DefaultSchedule()
	}
	return &refAWM{
		cfg:      cfg,
		cs:       sketch.NewCountSketch(cfg.Depth, cfg.Width, cfg.Seed),
		loss:     cfg.Loss,
		schedule: cfg.Schedule,
		sqrtS:    math.Sqrt(float64(cfg.Depth)),
		scale:    1,
		active:   topk.New(cfg.HeapSize),
	}
}

func (a *refAWM) queryUnscaled(i uint32) float64 { return a.sqrtS * refEstimate(a.cs, i) }

func (a *refAWM) sketchAdd(i uint32, delta float64) { refUpdate(a.cs, i, delta/a.sqrtS) }

func (a *refAWM) predict(x stream.Vector) float64 {
	dot := 0.0
	for _, f := range x {
		if w, ok := a.active.Get(f.Index); ok {
			dot += w * f.Value
		} else {
			dot += f.Value * refSumSigned(a.cs, f.Index) / a.sqrtS
		}
	}
	return dot * a.scale
}

func (a *refAWM) update(x stream.Vector, y int) {
	ys := float64(y)
	a.t++
	eta := a.schedule.Rate(a.t)
	margin := ys * a.predict(x)
	g := a.loss.Deriv(margin)

	if a.cfg.Lambda > 0 {
		if a.cfg.NoScaleTrick {
			decay := 1 - eta*a.cfg.Lambda
			refScale(a.cs, decay)
			a.active.ScaleWeights(decay)
		} else {
			a.scale *= 1 - eta*a.cfg.Lambda
			if a.scale < minScale {
				refScale(a.cs, a.scale)
				a.active.ScaleWeights(a.scale)
				a.scale = 1
			}
		}
	}

	effScale := a.scale
	if a.cfg.NoScaleTrick {
		effScale = 1
	}
	step := eta * ys * g / effScale

	for _, f := range x {
		if f.Value == 0 {
			continue
		}
		if w, ok := a.active.Get(f.Index); ok {
			if g != 0 {
				a.active.UpdateMagnitude(f.Index, w-step*f.Value)
			}
			continue
		}
		wTilde := a.queryUnscaled(f.Index) - step*f.Value
		if !a.active.Full() {
			a.active.InsertMagnitude(f.Index, wTilde)
			continue
		}
		min, _ := a.active.Min()
		if math.Abs(wTilde) > min.Score {
			a.active.PopMin()
			delta := min.Weight - a.queryUnscaled(min.Key)
			a.sketchAdd(min.Key, delta)
			a.active.InsertMagnitude(f.Index, wTilde)
		} else if g != 0 {
			a.sketchAdd(f.Index, -step*f.Value)
		}
	}
}

func (a *refAWM) estimate(i uint32) float64 {
	if w, ok := a.active.Get(i); ok {
		return w * a.scale
	}
	return a.scale * a.queryUnscaled(i)
}

// equivalenceConfigs covers the depth-1 specialization, even- and
// odd-depth medians, decay on/off, and the explicit-decay ablation.
func equivalenceConfigs() []Config {
	return []Config{
		{Width: 256, Depth: 1, HeapSize: 128, Lambda: 1e-6, Seed: 11},
		{Width: 256, Depth: 1, HeapSize: 128, Lambda: 0, Seed: 12},
		{Width: 128, Depth: 2, HeapSize: 64, Lambda: 1e-6, Seed: 13},
		{Width: 128, Depth: 3, HeapSize: 64, Lambda: 1e-5, Seed: 14},
		{Width: 64, Depth: 5, HeapSize: 32, Lambda: 1e-6, Seed: 15},
		{Width: 256, Depth: 1, HeapSize: 128, Lambda: 1e-6, Seed: 16, NoScaleTrick: true},
		{Width: 128, Depth: 2, HeapSize: 64, Lambda: 1e-6, Seed: 17, NoScaleTrick: true},
	}
}

func compareSketches(t *testing.T, tag string, got, want *sketch.CountSketch) {
	t.Helper()
	for j := 0; j < want.Depth(); j++ {
		gr, wr := got.Row(j), want.Row(j)
		for b := range wr {
			if gr[b] != wr[b] {
				t.Fatalf("%s: bucket [%d][%d] = %v, reference %v", tag, j, b, gr[b], wr[b])
			}
		}
	}
}

func TestWMSketchFusedMatchesReference(t *testing.T) {
	for _, cfg := range equivalenceConfigs() {
		gen := datagen.RCV1Like(cfg.Seed)
		fused := NewWMSketch(cfg)
		ref := newRefWM(cfg)
		for i := 0; i < 2000; i++ {
			ex := gen.Next()
			fused.Update(ex.X, ex.Y)
			ref.update(ex.X, ex.Y)
		}
		tag := tagOf(cfg)
		if fused.Steps() != ref.t {
			t.Fatalf("%s: steps %d vs %d", tag, fused.Steps(), ref.t)
		}
		if fused.Scale() != ref.scale {
			t.Fatalf("%s: scale %v vs %v", tag, fused.Scale(), ref.scale)
		}
		compareSketches(t, tag, fused.Sketch(), ref.cs)
		for i := uint32(0); i < 4096; i++ {
			if g, w := fused.Estimate(i), ref.estimate(i); g != w {
				t.Fatalf("%s: Estimate(%d) = %v, reference %v", tag, i, g, w)
			}
		}
		probe := gen.Next().X
		if g, w := fused.Predict(probe), ref.predict(probe); g != w {
			t.Fatalf("%s: Predict = %v, reference %v", tag, g, w)
		}
		// The passive heaps must hold identical key sets. (TopK re-estimates
		// entries, so ask for the whole heap and compare membership.)
		gotTop := fused.TopK(cfg.HeapSize)
		if len(gotTop) != ref.heap.Len() {
			t.Fatalf("%s: heap sizes differ: %d vs %d", tag, len(gotTop), ref.heap.Len())
		}
		gotSet := map[uint32]bool{}
		for _, e := range gotTop {
			gotSet[e.Index] = true
		}
		for _, e := range ref.heap.Entries() {
			if !gotSet[e.Key] {
				t.Fatalf("%s: reference heap key %d missing from fused heap", tag, e.Key)
			}
		}
	}
}

func TestAWMSketchFusedMatchesReference(t *testing.T) {
	for _, cfg := range equivalenceConfigs() {
		gen := datagen.RCV1Like(cfg.Seed + 100)
		fused := NewAWMSketch(cfg)
		ref := newRefAWM(cfg)
		for i := 0; i < 2000; i++ {
			ex := gen.Next()
			fused.Update(ex.X, ex.Y)
			ref.update(ex.X, ex.Y)
		}
		tag := tagOf(cfg)
		if fused.Scale() != ref.scale {
			t.Fatalf("%s: scale %v vs %v", tag, fused.Scale(), ref.scale)
		}
		compareSketches(t, tag, fused.Sketch(), ref.cs)
		if fused.ActiveSetSize() != ref.active.Len() {
			t.Fatalf("%s: active set size %d vs %d", tag, fused.ActiveSetSize(), ref.active.Len())
		}
		for i := uint32(0); i < 4096; i++ {
			if g, w := fused.Estimate(i), ref.estimate(i); g != w {
				t.Fatalf("%s: Estimate(%d) = %v, reference %v", tag, i, g, w)
			}
		}
		probe := gen.Next().X
		if g, w := fused.Predict(probe), ref.predict(probe); g != w {
			t.Fatalf("%s: Predict = %v, reference %v", tag, g, w)
		}
	}
}

// TestAWMSketchDuplicateFeaturesMatchReference drives the rare in-example
// paths: duplicate feature indices, zero values, and a heap so small that a
// feature resident at predict time is evicted before its second occurrence
// is processed (the spareLocs fallback).
func TestAWMSketchDuplicateFeaturesMatchReference(t *testing.T) {
	for _, depth := range []int{1, 2, 3} {
		cfg := Config{Width: 32, Depth: depth, HeapSize: 2, Lambda: 1e-4, Seed: 21}
		fused := NewAWMSketch(cfg)
		ref := newRefAWM(cfg)
		y := 1
		for i := 0; i < 500; i++ {
			a := uint32(i % 7)
			b := uint32(i % 5)
			x := stream.Vector{
				{Index: a, Value: 1},
				{Index: b, Value: 0.5},
				{Index: a, Value: -0.25}, // duplicate of the first feature
				{Index: uint32(i % 11), Value: 0},
				{Index: b, Value: 2}, // duplicate of the second feature
			}
			fused.Update(x, y)
			ref.update(x, y)
			y = -y
		}
		tag := tagOf(cfg)
		compareSketches(t, tag, fused.Sketch(), ref.cs)
		for i := uint32(0); i < 16; i++ {
			if g, w := fused.Estimate(i), ref.estimate(i); g != w {
				t.Fatalf("%s: Estimate(%d) = %v, reference %v", tag, i, g, w)
			}
		}
	}
}

func tagOf(cfg Config) string {
	tag := "depth=" + itoa(cfg.Depth) + " lambda>0=" + boolStr(cfg.Lambda > 0)
	if cfg.NoScaleTrick {
		tag += " noscale"
	}
	return tag
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// boundedValues are the feature values of the bounded-exhaustive check:
// both zeros, ±1, the smallest subnormals and the largest finite floats.
var boundedValues = []float64{
	math.Copysign(0, -1), 0, 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
}

// boundedExamples enumerates the examples of the bounded-exhaustive check,
// each with both labels and keys free to repeat: every sequence of one or
// two features over 6 keys with values from boundedValues, and every
// sequence of three of the 6 keys, the k-th of the 216 carrying value
// triple k mod 64 of the triples (a, b, a+b mod 8), which between them put
// every pair of values at every pair of positions.
func boundedExamples() []stream.Example {
	const keys = 6
	nv := len(boundedValues)
	var out []stream.Example
	emit := func(x stream.Vector) {
		out = append(out, stream.Example{X: x, Y: 1}, stream.Example{X: x, Y: -1})
	}
	f := func(k, v int) stream.Feature { return stream.Feature{Index: uint32(k), Value: boundedValues[v]} }
	for k0 := 0; k0 < keys; k0++ {
		for v0 := 0; v0 < nv; v0++ {
			emit(stream.Vector{f(k0, v0)})
			for k1 := 0; k1 < keys; k1++ {
				for v1 := 0; v1 < nv; v1++ {
					emit(stream.Vector{f(k0, v0), f(k1, v1)})
				}
			}
		}
	}
	for k := 0; k < keys*keys*keys; k++ {
		a, b := k%nv, k/nv%nv
		emit(stream.Vector{f(k%keys, a), f(k/keys%keys, b), f(k/(keys*keys), (a+b)%nv)})
	}
	return out
}

// boundedPrefix brings every learner of a case to the same non-trivial
// state before the enumerated example: the active set and the heap are
// full and the sketch holds mass.
var boundedPrefix = []stream.Example{
	{Y: 1, X: stream.Vector{{Index: 0, Value: 1}, {Index: 1, Value: -1}, {Index: 2, Value: 1}, {Index: 3, Value: -0.5}}},
}

// resetWM and resetAWM return a fused learner to its constructed state
// without rebuilding its hash functions, which dominate construction at
// these sizes. A field they miss makes the learner diverge from its
// reference, which the check reports.
func resetWM(w *WMSketch) {
	w.cs.Reset()
	w.heap = topk.New(w.cfg.HeapSize)
	w.scale, w.t = 1, 0
}

func resetAWM(a *AWMSketch) {
	a.cs.Reset()
	a.active = topk.New(a.cfg.HeapSize)
	a.scale, a.t = 1, 0
}

func (w *refWM) reset() {
	refClear(w.cs)
	w.heap = topk.New(w.cfg.HeapSize)
	w.scale, w.t = 1, 0
}

func (a *refAWM) reset() {
	refClear(a.cs)
	a.active = topk.New(a.cfg.HeapSize)
	a.scale, a.t = 1, 0
}

// refClear sets every bucket to +0 (scaling by 0 would leave −0 in the
// negative ones).
func refClear(cs *sketch.CountSketch) {
	for j := 0; j < cs.Depth(); j++ {
		clear(cs.Row(j))
	}
}

// sameBits compares floats bit for bit: −0 differs from +0, and NaN
// equals a NaN with the same payload.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// compareBounded fails unless the fused learner's sketch, heap, scale,
// estimates over every key and margin on x match its reference's bits.
func compareBounded(t *testing.T, tag string, n int, got, want *sketch.CountSketch, gotHeap, wantHeap *topk.Heap,
	gotScale, wantScale float64, gotEst, wantEst func(uint32) float64, gotPred, wantPred float64) {
	t.Helper()
	for j := 0; j < want.Depth(); j++ {
		for b, w := range want.Row(j) {
			if g := got.Row(j)[b]; !sameBits(g, w) {
				t.Fatalf("%s example %d: bucket [%d][%d] = %v, reference %v", tag, n, j, b, g, w)
			}
		}
	}
	ge, we := gotHeap.Entries(), wantHeap.Entries()
	if len(ge) != len(we) {
		t.Fatalf("%s example %d: heap holds %d entries, reference %d", tag, n, len(ge), len(we))
	}
	for i := range we {
		if ge[i].Key != we[i].Key || !sameBits(ge[i].Weight, we[i].Weight) {
			t.Fatalf("%s example %d: heap entry %d = (%d, %v), reference (%d, %v)",
				tag, n, i, ge[i].Key, ge[i].Weight, we[i].Key, we[i].Weight)
		}
	}
	if !sameBits(gotScale, wantScale) {
		t.Fatalf("%s example %d: scale %v, reference %v", tag, n, gotScale, wantScale)
	}
	for i := uint32(0); i < 6; i++ {
		if g, w := gotEst(i), wantEst(i); !sameBits(g, w) {
			t.Fatalf("%s example %d: Estimate(%d) = %v, reference %v", tag, n, i, g, w)
		}
	}
	if !sameBits(gotPred, wantPred) {
		t.Fatalf("%s example %d: Predict = %v, reference %v", tag, n, gotPred, wantPred)
	}
}

// TestFusedMatchesReferenceBounded checks equivalence the way VeriEQL
// (PAPERS.md) proves it: for every input up to a bound instead of for
// sampled streams. Every sketch of width 1–4 and depth 1–4 (a heap of 2,
// so promotions and evictions run) is brought to the state boundedPrefix
// leaves and then fed each example boundedExamples enumerates, and both
// fused learners must match their references bit for bit on buckets,
// heap, scale, Estimate and Predict. The values make ties, both zeros,
// subnormal underflow and overflow to ±Inf and NaN reach the medians.
func TestFusedMatchesReferenceBounded(t *testing.T) {
	examples := boundedExamples()
	for depth := 1; depth <= 4; depth++ {
		for width := 1; width <= 4; width++ {
			cfg := Config{Width: width, Depth: depth, HeapSize: 2, Lambda: 1e-3, Seed: int64(10*depth + width)}
			tag := "width=" + itoa(width) + " " + tagOf(cfg)
			wm, rwm := NewWMSketch(cfg), newRefWM(cfg)
			awm, rawm := NewAWMSketch(cfg), newRefAWM(cfg)
			for n, ex := range examples {
				resetWM(wm)
				rwm.reset()
				resetAWM(awm)
				rawm.reset()
				for i := 0; i <= len(boundedPrefix); i++ {
					p := ex
					if i < len(boundedPrefix) {
						p = boundedPrefix[i]
					}
					wm.Update(p.X, p.Y)
					rwm.update(p.X, p.Y)
					awm.Update(p.X, p.Y)
					rawm.update(p.X, p.Y)
				}
				compareBounded(t, "WM "+tag, n, wm.cs, rwm.cs, wm.heap, rwm.heap, wm.scale, rwm.scale,
					wm.Estimate, rwm.estimate, wm.Predict(ex.X), rwm.predict(ex.X))
				compareBounded(t, "AWM "+tag, n, awm.cs, rawm.cs, awm.active, rawm.active, awm.scale, rawm.scale,
					awm.Estimate, rawm.estimate, awm.Predict(ex.X), rawm.predict(ex.X))
			}
		}
	}
}
