// Package stream defines the data plumbing shared by every learner and
// experiment: sparse feature vectors, labeled examples, the Learner
// interface implemented by the WM-/AWM-Sketch and all baselines, and a
// libsvm-format parser for feeding external datasets through the CLI.
package stream

import (
	"math"
	"sort"
	"sync"
)

// Feature is one (index, value) coordinate of a sparse vector.
type Feature struct {
	Index uint32
	Value float64
}

// Vector is a sparse feature vector. Indices are not required to be sorted
// or unique by construction, but most producers emit them sorted.
type Vector []Feature

// NNZ returns the number of stored coordinates.
func (v Vector) NNZ() int { return len(v) }

// L1Norm returns Σ|vᵢ|.
func (v Vector) L1Norm() float64 {
	s := 0.0
	for _, f := range v {
		if f.Value < 0 {
			s -= f.Value
		} else {
			s += f.Value
		}
	}
	return s
}

// L2NormSquared returns Σvᵢ².
func (v Vector) L2NormSquared() float64 {
	s := 0.0
	for _, f := range v {
		s += f.Value * f.Value
	}
	return s
}

// Normalize returns a copy of v scaled to unit L1 norm (the normalization
// the paper assumes for its bounds: max ‖x‖₁ = 1). A zero vector is
// returned unchanged.
func (v Vector) Normalize() Vector {
	n := v.L1Norm()
	if n == 0 {
		return v
	}
	out := make(Vector, len(v))
	for i, f := range v {
		out[i] = Feature{Index: f.Index, Value: f.Value / n}
	}
	return out
}

// Sorted returns a copy with indices in ascending order.
func (v Vector) Sorted() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// OneHot returns the 1-sparse vector with a single unit coordinate, the
// encoding used for frequency estimation and the §8 applications.
func OneHot(index uint32) Vector {
	return Vector{{Index: index, Value: 1}}
}

// Example is one labeled observation from a binary classification stream.
// Label is +1 or -1.
type Example struct {
	X Vector
	Y int
}

// Learner is the uniform interface over all memory-budgeted classifiers in
// this repository: the WM-Sketch, AWM-Sketch, truncation baselines, feature
// hashing, frequent-feature methods and unconstrained logistic regression.
type Learner interface {
	// Update performs one online gradient step on example (x, y), y ∈ {-1,+1}.
	Update(x Vector, y int)
	// Predict returns the signed margin wᵀx under the current model; the
	// predicted label is its sign.
	Predict(x Vector) float64
	// Estimate returns the model's estimate of the weight of feature i.
	Estimate(i uint32) float64
	// TopK returns the k features with the largest estimated |weight|,
	// descending. Implementations may return fewer when they track fewer.
	TopK(k int) []Weighted
	// MemoryBytes returns the cost-model footprint (Section 7.1: 4 bytes per
	// identifier, weight and auxiliary value).
	MemoryBytes() int
}

// Weighted pairs a feature index with an estimated weight.
type Weighted struct {
	Index  uint32
	Weight float64
}

// SortWeighted orders ws by descending |weight|, breaking ties by
// ascending index. For unique indices (every heavy list and top-K) that is
// one total order: the canonical order that makes gossip frames and mixed
// views byte-identical across replicas.
//
// It is a stable LSD radix sort over that 96-bit key, one byte per pass:
// the index's four bytes, then the eight bytes of the complemented
// magnitude bits (non-negative float64s order like their bit patterns, so
// ±0 tie and subnormals sort below every normal). It does no comparisons
// and runs in linear time; a pass whose byte is the same in every entry is
// skipped, and so are the index passes when the indices already ascend.
// NaN magnitudes sort above +Inf.
func SortWeighted(ws []Weighted) { radixSort(ws, radixPasses) }

// SortByIndex orders ws by ascending index, keeping entries with equal
// indices in their order: SortWeighted's four index passes alone.
func SortByIndex(ws []Weighted) { radixSort(ws, indexPasses) }

// radixSort runs the first passes of SortWeighted's LSD radix sort. When
// the indices already ascend, it skips the index passes: being stable,
// they would move nothing.
func radixSort(ws []Weighted, passes int) {
	if len(ws) < 2 {
		return
	}
	if uint64(len(ws)) > math.MaxUint32 {
		panic("stream: sort of more than 2^32 entries")
	}
	s := radixPool.Get().(*radixScratch)
	defer radixPool.Put(s)
	if cap(s.buf) < len(ws) {
		s.buf = make([]Weighted, len(ws))
	}
	c := &s.counts
	*c = [radixPasses][256]uint32{}
	byWeight := passes > indexPasses
	ascending, prev := true, ws[0].Index
	for _, w := range ws {
		i := w.Index
		ascending = ascending && i >= prev
		prev = i
		c[0][byte(i)]++
		c[1][byte(i>>8)]++
		c[2][byte(i>>16)]++
		c[3][byte(i>>24)]++
		if byWeight {
			k := magnitudeKey(w.Weight)
			c[4][byte(k)]++
			c[5][byte(k>>8)]++
			c[6][byte(k>>16)]++
			c[7][byte(k>>24)]++
			c[8][byte(k>>32)]++
			c[9][byte(k>>40)]++
			c[10][byte(k>>48)]++
			c[11][byte(k>>56)]++
		}
	}
	start := 0
	if ascending {
		start = indexPasses
	}
	src, dst := ws, s.buf[:len(ws)]
	for p := start; p < passes; p++ {
		first := ws[0]
		var d byte
		if p < indexPasses {
			d = byte(first.Index >> (8 * p))
		} else {
			d = byte(magnitudeKey(first.Weight) >> (8 * (p - indexPasses)))
		}
		at := &c[p]
		if int(at[d]) == len(ws) {
			continue // every entry has this byte: the pass would not move anything
		}
		var sum uint32
		for i, n := range at {
			at[i], sum = sum, sum+n
		}
		if p < indexPasses {
			shift := 8 * p
			for _, w := range src {
				b := byte(w.Index >> shift)
				dst[at[b]] = w
				at[b]++
			}
		} else {
			shift := 8 * (p - indexPasses)
			for _, w := range src {
				b := byte(magnitudeKey(w.Weight) >> shift)
				dst[at[b]] = w
				at[b]++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &ws[0] {
		copy(ws, src)
	}
}

// radixPasses is one pass per key byte: four of index, eight of magnitude.
const (
	radixPasses = 12
	indexPasses = 4
)

// radixScratch is SortWeighted's reusable working memory: the ping-pong
// buffer and one byte histogram per pass.
type radixScratch struct {
	buf    []Weighted
	counts [radixPasses][256]uint32
}

var radixPool = sync.Pool{New: func() any { return new(radixScratch) }}

// magnitudeKey maps w to a key whose ascending order is descending |w|:
// the complement of the float's bits with the sign cleared.
func magnitudeKey(w float64) uint64 {
	return ^(math.Float64bits(w) &^ (1 << 63))
}
