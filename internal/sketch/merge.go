package sketch

import "fmt"

// Merge adds other's buckets into cs. Count-Sketches are linear
// projections, so merging the sketches of two streams yields exactly the
// sketch of their concatenation — the basis for distributed or sharded
// aggregation (the asynchronous-update extension sketched in Section 9).
// Both sketches must share shape and seed (identical hash functions);
// otherwise Merge returns an error and leaves cs unchanged.
func (cs *CountSketch) Merge(other *CountSketch) error {
	if err := compatible(cs.depth, other.depth, cs.width, other.width, cs.seed, other.seed); err != nil {
		return err
	}
	dst, src := cs.buckets, other.buckets[:len(cs.buckets)]
	for b := range dst {
		dst[b] += src[b]
	}
	return nil
}

// Merge adds other's counters into cm. Valid for plain Count-Min sketches;
// conservative-update sketches are not mergeable (their bucket values are
// not linear in the input) and produce an error.
func (cm *CountMin) Merge(other *CountMin) error {
	if cm.conservative || other.conservative {
		return fmt.Errorf("sketch: conservative Count-Min is not mergeable")
	}
	if err := compatible(cm.depth, other.depth, cm.width, other.width, cm.seed, other.seed); err != nil {
		return err
	}
	for j := range cm.rows {
		dst, src := cm.rows[j], other.rows[j]
		for b := range dst {
			dst[b] += src[b]
		}
	}
	cm.total += other.total
	return nil
}

func compatible(d1, d2, w1, w2 int, s1, s2 int64) error {
	if d1 != d2 || w1 != w2 {
		return fmt.Errorf("sketch: shape mismatch %dx%d vs %dx%d", d1, w1, d2, w2)
	}
	if s1 != s2 {
		return fmt.Errorf("sketch: seed mismatch (different hash functions)")
	}
	return nil
}
