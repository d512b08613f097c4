// Package sketch implements the linear-projection sketches the paper builds
// on: the Count-Sketch of Charikar, Chen and Farach-Colton (the backing data
// structure of the Weight-Median Sketch) and the Count-Min Sketch of Cormode
// and Muthukrishnan (used by the paired-sketch deltoid baseline in Section
// 8.2 and the Count-Min Frequent Features baseline in Section 7).
package sketch

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"wmsketch/internal/hashing"
)

// CountSketch is a depth × width array of float64 buckets with per-row
// bucket and sign hashes. Each key i hashes to one bucket per row,
// multiplied by a random ±1 sign; the point estimate for i is the median of
// its signed bucket values (Section 3.1, Lemma 1).
//
// The value type is float64 rather than an integer counter because the
// WM-Sketch applies real-valued gradient updates to the same structure.
//
// Two hot-path specializations matter for throughput:
//
//   - Depth 1 (the paper's uniformly-best AWM-Sketch configuration, Section
//     7.2) skips the row loop, the median, and its scratch buffer entirely:
//     the estimate of a key is just sign·bucket.
//   - The Loc-based API (Locate / SumAt / AddAt / EstimateAt) hashes each key
//     exactly once per example and reuses the recorded (bucket, sign) pairs
//     for the prediction read, the gradient write, and the post-update
//     estimate, instead of re-hashing on each access.
//   - Depth 3 takes its median with a branch-free select network (median3)
//     instead of a sort.
type CountSketch struct {
	depth   int
	width   int
	seed    int64
	buckets []float64 // depth rows of width, laid end to end
	hashes  *hashing.Family
}

// maxStackDepth bounds the depth for which query paths use a stack-resident
// median buffer; deeper sketches (never used by the paper, which tops out at
// depth 8) fall back to an allocation per query.
const maxStackDepth = 8

// NewCountSketch returns a Count-Sketch with the given depth (number of
// independent rows) and width (buckets per row), seeded deterministically.
func NewCountSketch(depth, width int, seed int64) *CountSketch {
	return NewGeometry(depth, width, seed).New()
}

// Geometry is a Count-Sketch shape (depth, width and hash seed) with the
// hash family of that depth and seed, built once, on first use. Every
// sketch New makes and Read restores shares the family, as Clone's copies
// do, instead of building its own: a family costs about 50 µs and 19 KB a
// row, more than the buckets of a small sketch. Building it on first use
// lets a loader take its geometry from a header, and refuse what follows,
// without paying for a family the input never justifies. A Geometry is
// safe for concurrent use.
type Geometry struct {
	depth, width int
	seed         int64
	once         sync.Once
	hashes       *hashing.Family
}

// NewGeometry returns the geometry of depth rows of width buckets under
// seed. Its hash family is built by the first New, Read or Hashes.
func NewGeometry(depth, width int, seed int64) *Geometry {
	if depth <= 0 {
		panic(fmt.Sprintf("sketch: depth must be positive, got %d", depth))
	}
	if width <= 0 {
		panic(fmt.Sprintf("sketch: width must be positive, got %d", width))
	}
	if depth > math.MaxInt32/width {
		panic(fmt.Sprintf("sketch: %d×%d buckets overflow a Loc's int32 index", depth, width))
	}
	return &Geometry{depth: depth, width: width, seed: seed}
}

// Geometry returns the sketch's geometry, sharing its hash family.
func (cs *CountSketch) Geometry() *Geometry {
	return &Geometry{depth: cs.depth, width: cs.width, seed: cs.seed, hashes: cs.hashes}
}

// New returns a zeroed sketch of the geometry.
func (g *Geometry) New() *CountSketch {
	return g.wrap(make([]float64, g.depth*g.width))
}

// wrap builds a sketch of the geometry over buckets, its depth rows of
// width laid end to end.
func (g *Geometry) wrap(buckets []float64) *CountSketch {
	return &CountSketch{depth: g.depth, width: g.width, seed: g.seed, buckets: buckets, hashes: g.Hashes()}
}

// Matches reports whether a sketch of depth rows of width buckets under
// seed has this geometry.
func (g *Geometry) Matches(depth, width int, seed int64) bool {
	return depth == g.depth && width == g.width && seed == g.seed
}

// Hashes returns the geometry's hash family, which its sketches share,
// building it on the first call.
func (g *Geometry) Hashes() *hashing.Family {
	g.once.Do(func() {
		if g.hashes == nil {
			g.hashes = hashing.NewFamily(g.depth, g.seed)
		}
	})
	return g.hashes
}

// Depth returns the number of rows.
func (cs *CountSketch) Depth() int { return cs.depth }

// Width returns the number of buckets per row.
func (cs *CountSketch) Width() int { return cs.width }

// Size returns the total number of buckets (depth × width).
func (cs *CountSketch) Size() int { return cs.depth * cs.width }

// Seed returns the hash seed. Sketches merge (and diff) only when their
// shapes and seeds agree; replication layers check it before adopting
// remote state.
func (cs *CountSketch) Seed() int64 { return cs.seed }

// Update adds delta to key's bucket in every row, multiplied by the row sign.
func (cs *CountSketch) Update(key uint32, delta float64) {
	if cs.depth == 1 {
		b, sign := cs.hashes.Row(0).BucketSign(key, cs.width)
		cs.buckets[b] += sign * delta
		return
	}
	for j := 0; j < cs.depth; j++ {
		b, sign := cs.hashes.BucketSign(j, key, cs.width)
		cs.buckets[j*cs.width+b] += sign * delta
	}
}

// Estimate returns the median-of-signs point estimate for key.
//
// The median buffer lives on the stack (for depth ≤ 8), so Estimate is safe
// to call from multiple goroutines concurrently as long as no goroutine is
// writing the sketch.
func (cs *CountSketch) Estimate(key uint32) float64 {
	if cs.depth == 1 {
		b, sign := cs.hashes.Row(0).BucketSign(key, cs.width)
		return sign * cs.buckets[b]
	}
	var buf [maxStackDepth]float64
	xs := buf[:]
	if cs.depth > maxStackDepth {
		xs = make([]float64, cs.depth)
	}
	xs = xs[:cs.depth]
	for j := 0; j < cs.depth; j++ {
		b, sign := cs.hashes.BucketSign(j, key, cs.width)
		xs[j] = sign * cs.buckets[j*cs.width+b]
	}
	return median(xs)
}

// SumSigned returns Σⱼ σⱼ(key)·row[j][hⱼ(key)], the signed sum over rows of
// key's buckets. The WM-Sketch prediction τ = zᵀRx expands into this per
// feature: zᵀRx = (1/√s)·Σ_f x_f·SumSigned(f).
func (cs *CountSketch) SumSigned(key uint32) float64 {
	if cs.depth == 1 {
		b, sign := cs.hashes.Row(0).BucketSign(key, cs.width)
		return sign * cs.buckets[b]
	}
	sum := 0.0
	for j := 0; j < cs.depth; j++ {
		b, sign := cs.hashes.BucketSign(j, key, cs.width)
		sum += sign * cs.buckets[j*cs.width+b]
	}
	return sum
}

// Loc records where one key lands in one row: the ±1 sign, and as Bucket
// the bucket's index in the sketch's flat bucket array, row j's bucket b
// being j·Width()+b (so in row 0 it is the bucket itself). A key's full
// location is a []Loc of length Depth(), row-major.
type Loc struct {
	Bucket int32
	Sign   float64
}

// Locate fills locs[0:Depth()] with key's (bucket, sign) pair per row,
// hashing once per row. The recorded locations stay valid for the lifetime
// of the sketch (Scale/Reset change values, never locations), so callers can
// hash a feature once per example and reuse the locations across the
// predict, gradient, and estimate phases of an update.
func (cs *CountSketch) Locate(key uint32, locs []Loc) {
	for j := 0; j < cs.depth; j++ {
		b, sign := cs.hashes.Row(j).BucketSign(key, cs.width)
		locs[j] = Loc{Bucket: int32(j*cs.width + b), Sign: sign}
	}
}

// SumAt is SumSigned evaluated at pre-computed locations: no hashing.
func (cs *CountSketch) SumAt(locs []Loc) float64 {
	if len(locs) == 1 {
		return locs[0].Sign * cs.buckets[locs[0].Bucket]
	}
	sum := 0.0
	for _, l := range locs {
		sum += l.Sign * cs.buckets[l.Bucket]
	}
	return sum
}

// AddAt is Update evaluated at pre-computed locations: no hashing.
func (cs *CountSketch) AddAt(locs []Loc, delta float64) {
	for _, l := range locs {
		cs.buckets[l.Bucket] += l.Sign * delta
	}
}

// EstimateAt is Estimate evaluated at pre-computed locations: no hashing.
func (cs *CountSketch) EstimateAt(locs []Loc) float64 {
	switch len(locs) {
	case 1:
		return locs[0].Sign * cs.buckets[locs[0].Bucket]
	case 3:
		return median3(locs[0].Sign*cs.buckets[locs[0].Bucket],
			locs[1].Sign*cs.buckets[locs[1].Bucket],
			locs[2].Sign*cs.buckets[locs[2].Bucket])
	}
	var buf [maxStackDepth]float64
	xs := buf[:]
	if len(locs) > maxStackDepth {
		xs = make([]float64, len(locs))
	}
	xs = xs[:len(locs)]
	for j, l := range locs {
		xs[j] = l.Sign * cs.buckets[l.Bucket]
	}
	return median(xs)
}

// Scale multiplies every bucket by c. Used by callers implementing explicit
// (non-lazy) ℓ2 weight decay.
func (cs *CountSketch) Scale(c float64) {
	buckets := cs.buckets
	for b := range buckets {
		buckets[b] *= c
	}
}

// Reset zeroes every bucket, retaining the hash functions.
func (cs *CountSketch) Reset() { clear(cs.buckets) }

// Clone returns a deep copy of the sketch sharing nothing with the original
// except the (immutable) hash family. Used by the sharded learner to
// snapshot worker-private sketches for merging.
func (cs *CountSketch) Clone() *CountSketch {
	out := *cs
	out.buckets = slices.Clone(cs.buckets)
	return &out
}

// L2Norm returns the Euclidean norm of the flattened bucket array, averaged
// over rows; for a Count-Sketch of a vector x this approximates ‖x‖₂.
func (cs *CountSketch) L2Norm() float64 {
	total := 0.0
	for j := 0; j < cs.depth; j++ {
		s := 0.0
		for _, v := range cs.Row(j) {
			s += v * v
		}
		total += s
	}
	return math.Sqrt(total / float64(cs.depth))
}

// Row exposes row j read-only for tests and white-box diagnostics.
func (cs *CountSketch) Row(j int) []float64 {
	return cs.buckets[j*cs.width : (j+1)*cs.width]
}

// Hashes exposes the underlying hash family; the WM-Sketch shares it so that
// sketched feature projections and queries use identical bucket assignments.
func (cs *CountSketch) Hashes() *hashing.Family { return cs.hashes }

// MemoryBytes returns the cost-model size of the sketch: 4 bytes per bucket.
//
// This is a *cost-model convention*, not the resident size: Section 7.1 of
// the paper charges 4 B per stored weight (float32 precision suffices for
// the learned models it evaluates), and every budget comparison in the
// experiments uses that convention. The Go implementation stores float64
// buckets for numerical headroom, so the actual heap footprint is ~2× the
// value reported here. Use MemoryBytes for paper-comparable budget
// accounting, not for capacity planning.
func (cs *CountSketch) MemoryBytes() int { return 4 * cs.depth * cs.width }

// median returns the median of xs, averaging the two central elements for
// even lengths. xs may be reordered in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return xs[0]
	}
	if n == 2 {
		return midpoint(xs[0], xs[1])
	}
	if n == 3 {
		return median3(xs[0], xs[1], xs[2])
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return midpoint(xs[n/2-1], xs[n/2])
}

// median3 returns the element sort.Float64s leaves in the middle of [a, b,
// c], bit for bit. For three elements that sort is an insertion sort, which
// amounts to compare-exchanging positions 0–1, then 1–2, then 0–1 again,
// swapping only when the later element orders strictly first. median3 runs
// the same three steps as bit selects instead of branches, so it inherits
// the sort's order (NaN before every number) and its stability (equal
// elements such as −0 and +0 keep their input order, so the same zero comes
// back).
func median3(a, b, c float64) float64 {
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	d := (ua ^ ub) & before(b, a)
	lo, hi := ua^d, ub^d // positions 0 and 1 after the first step
	mid := hi ^ (hi^math.Float64bits(c))&before(c, math.Float64frombits(hi))
	mid ^= (mid ^ lo) & before(math.Float64frombits(mid), math.Float64frombits(lo))
	return math.Float64frombits(mid)
}

// before is an all-ones mask when sort.Float64s orders x strictly before y
// (cmp.Less: x < y, or x is NaN and y is not) and zero otherwise.
// !(y <= x) holds for x < y and for every pair with a NaN; y == y then
// drops the pairs where y is the NaN. The bool-to-bit conversions compile
// to flag sets, not branches.
func before(x, y float64) uint64 {
	return -(bit(!(y <= x)) & bit(y == y))
}

// bit is 1 for true and 0 for false.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// midpoint returns (a+b)/2 without overflowing for extreme magnitudes.
// The straightforward (a+b)/2 is exact whenever a+b does not overflow
// (dividing by two is exact in binary floating point), unlike a/2+b/2 which
// loses the low bit when both halves round (e.g. adjacent subnormals).
// Only when a+b overflows to ±Inf with finite inputs do we fall back to the
// overflow-safe form.
func midpoint(a, b float64) float64 {
	m := (a + b) / 2
	if math.IsInf(m, 0) && !math.IsInf(a, 0) && !math.IsInf(b, 0) {
		return a/2 + b/2
	}
	return m
}

// Median is the package-level median used by the Weight-Median query path.
// The input slice is reordered.
func Median(xs []float64) float64 { return median(xs) }
