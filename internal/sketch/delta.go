package sketch

import (
	"fmt"
	"math"
)

// Delta extraction and application for sketch replication.
//
// The WM-Sketch's linear mergeability makes whole-sketch exchange the
// natural replication primitive, but a full snapshot resends every bucket
// even when only a few changed since the receiver's last copy. Between two
// versions of the *same* sketch the difference is typically sparse — a
// gossip round that applied U updates touches at most U·nnz·depth buckets,
// and a quiescent sketch touches none — so peers that remember which
// version a receiver holds can ship only the changed buckets (the
// delta-reconciliation idea of rateless-set-reconcile, specialized to the
// dense-array case where positions are shared coordinates, not set
// members).
//
// A BucketChange carries the bucket's *new value*, not an additive
// increment: applying a change is idempotent, so a frame replayed by a
// retrying peer cannot double-count.
//
// Diff compares bucket values, so +0 equals −0: applying Diff(base, cur)
// to a copy of base reconstructs cur exactly, except that a zero bucket
// keeps base's sign. AppendDiffBits compares bit patterns instead, and its
// reconstruction is exact bit for bit. Cluster nodes keep older versions
// of a model as the bit diff from the newer version to the older one: the
// change list that takes the newer version back.

// BucketChange records one changed bucket: its flat row-major index
// (row·width + column) and its new value.
type BucketChange struct {
	Index uint32
	Value float64
}

// Diff returns the buckets where cur differs from base, in ascending flat
// index order, carrying cur's values. The two sketches must share shape and
// seed; Diff on incompatible sketches returns an error. Buckets compare by
// value: a bucket that left and returned to its old value is (correctly)
// not reported, and neither is a zero bucket whose sign changed, so a
// sketch rebuilt from the list is exact except for the sign of zero
// buckets.
func Diff(base, cur *CountSketch) ([]BucketChange, error) {
	if err := compatible(base.depth, cur.depth, base.width, cur.width, base.seed, cur.seed); err != nil {
		return nil, err
	}
	// Count first so the list is allocated once, at its final size.
	c, b := cur.buckets, base.buckets[:len(cur.buckets)]
	n := 0
	for i := range c {
		if c[i] != b[i] {
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	changes := make([]BucketChange, 0, n)
	for i := range c {
		if c[i] != b[i] {
			changes = append(changes, BucketChange{Index: uint32(i), Value: c[i]})
		}
	}
	return changes, nil
}

// AppendDiffBits is Diff comparing buckets by bit pattern, appending the
// changes to dst: it also reports a zero bucket whose sign changed, so
// applying its list to a copy of base gives cur bit for bit. A caller that
// keeps dst between calls diffs without allocating.
func AppendDiffBits(dst []BucketChange, base, cur *CountSketch) ([]BucketChange, error) {
	if err := compatible(base.depth, cur.depth, base.width, cur.width, base.seed, cur.seed); err != nil {
		return dst, err
	}
	c, b := cur.buckets, base.buckets[:len(cur.buckets)]
	for i := range c {
		if math.Float64bits(c[i]) != math.Float64bits(b[i]) {
			dst = append(dst, BucketChange{Index: uint32(i), Value: c[i]})
		}
	}
	return dst, nil
}

// At returns the bucket at flat row-major index i, the index a
// BucketChange carries.
func (cs *CountSketch) At(i uint32) float64 { return cs.buckets[i] }

// ApplyDiff sets each changed bucket to its new value. Indices are bounds-
// checked and values NaN/Inf-rejected before any mutation, so a corrupt
// frame leaves the sketch untouched. Changes must target the same shape the
// diff was taken against; applying AppendDiffBits(nil, base, cur) to a copy
// of base yields cur bit for bit, and Diff(base, cur) yields it up to the sign of
// zero buckets.
func (cs *CountSketch) ApplyDiff(changes []BucketChange) error {
	size := uint32(cs.depth * cs.width)
	for i, ch := range changes {
		if ch.Index >= size {
			return fmt.Errorf("sketch: delta change %d targets bucket %d, sketch has %d", i, ch.Index, size)
		}
		if math.IsNaN(ch.Value) || math.IsInf(ch.Value, 0) {
			return fmt.Errorf("sketch: delta change %d (bucket %d) is non-finite", i, ch.Index)
		}
	}
	for _, ch := range changes {
		cs.buckets[ch.Index] = ch.Value
	}
	return nil
}

// AddScaled adds c·other into cs bucket-wise: cs += c·other. With c == 1
// the addition is performed without the multiply, so it is bit-identical to
// Merge. Used by weighted parameter mixing (Σᵢ wᵢ·zᵢ, then one final
// scale by 1/Σwᵢ). Shapes and seeds must match.
func (cs *CountSketch) AddScaled(other *CountSketch, c float64) error {
	if err := compatible(cs.depth, other.depth, cs.width, other.width, cs.seed, other.seed); err != nil {
		return err
	}
	dst, src := cs.buckets, other.buckets[:len(cs.buckets)]
	if c == 1 {
		for b := range dst {
			dst[b] += src[b]
		}
	} else {
		for b := range dst {
			dst[b] += c * src[b]
		}
	}
	return nil
}
