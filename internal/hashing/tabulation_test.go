package hashing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTabulationDeterministic(t *testing.T) {
	a := NewTabulation(42)
	b := NewTabulation(42)
	for key := uint32(0); key < 1000; key++ {
		if a.Hash(key) != b.Hash(key) {
			t.Fatalf("same seed produced different hashes for key %d", key)
		}
	}
}

func TestTabulationSeedsDiffer(t *testing.T) {
	a := NewTabulation(1)
	b := NewTabulation(2)
	same := 0
	const n = 10000
	for key := uint32(0); key < n; key++ {
		if a.Hash(key) == b.Hash(key) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided on %d/%d keys", same, n)
	}
}

func TestTabulationBucketRange(t *testing.T) {
	h := NewTabulation(7)
	widths := []int{1, 2, 3, 7, 128, 1000, 1 << 20}
	for _, w := range widths {
		for key := uint32(0); key < 2000; key++ {
			b := h.Bucket(key, w)
			if b < 0 || b >= w {
				t.Fatalf("bucket %d out of range [0,%d) for key %d", b, w, key)
			}
		}
	}
}

func TestTabulationBucketRangeQuick(t *testing.T) {
	h := NewTabulation(13)
	f := func(key uint32, w uint16) bool {
		width := int(w)%4096 + 1
		b := h.Bucket(key, width)
		return b >= 0 && b < width
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTabulationSignValues(t *testing.T) {
	h := NewTabulation(3)
	plus, minus := 0, 0
	const n = 100000
	for key := uint32(0); key < n; key++ {
		switch h.Sign(key) {
		case 1:
			plus++
		case -1:
			minus++
		default:
			t.Fatalf("sign must be ±1")
		}
	}
	// Signs should be approximately balanced: expect 50% ± 5 sigma.
	dev := math.Abs(float64(plus)-n/2) / math.Sqrt(n/4)
	if dev > 5 {
		t.Fatalf("sign imbalance: %d plus vs %d minus (%.1f sigma)", plus, minus, dev)
	}
}

// TestBucketSignMatchesBranchyDefinition pins the branch-free sign to its
// definition, −1 exactly when the hash's top bit is set, bit for bit over
// a sweep of keys, seeds and widths, together with the bucket.
func TestBucketSignMatchesBranchyDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint32, 0, 1<<16+1<<12)
	for k := uint32(0); k < 1<<16; k++ {
		keys = append(keys, k)
	}
	for len(keys) < cap(keys) {
		keys = append(keys, rng.Uint32())
	}
	keys = append(keys, math.MaxUint32)
	for _, seed := range []int64{1, 42, -7} {
		h := NewTabulation(seed)
		for _, width := range []int{1, 3, 4096, 1 << 17} {
			for _, key := range keys {
				hv := h.Hash(key)
				wantSign := 1.0
				if hv>>63 == 1 {
					wantSign = -1
				}
				wantBucket := int((hv & 0xffffffff) * uint64(width) >> 32)
				b, sign := h.BucketSign(key, width)
				if b != wantBucket || math.Float64bits(sign) != math.Float64bits(wantSign) {
					t.Fatalf("seed %d width %d key %d: BucketSign = (%d, %v), want (%d, %v)",
						seed, width, key, b, sign, wantBucket, wantSign)
				}
				if s := h.Sign(key); math.Float64bits(s) != math.Float64bits(wantSign) {
					t.Fatalf("seed %d key %d: Sign = %v, want %v", seed, key, s, wantSign)
				}
			}
		}
	}
}

func TestTabulationBucketUniformity(t *testing.T) {
	h := NewTabulation(99)
	const width = 64
	const n = 64 * 4096
	counts := make([]int, width)
	for key := uint32(0); key < n; key++ {
		counts[h.Bucket(key, width)]++
	}
	// Chi-squared test with width-1 dof; mean chi2 = 63, sd = sqrt(2*63)≈11.2.
	expected := float64(n) / width
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > float64(width-1)+8*math.Sqrt(2*float64(width-1)) {
		t.Fatalf("bucket distribution far from uniform: chi2=%.1f", chi2)
	}
}

func TestTabulationPairwiseCollisions(t *testing.T) {
	// Pairwise independence implies collision probability ~1/width between
	// distinct keys. Check the empirical rate.
	h := NewTabulation(5)
	const width = 256
	const n = 2000
	collisions := 0
	pairs := 0
	buckets := make([]int, n)
	for i := 0; i < n; i++ {
		buckets[i] = h.Bucket(uint32(i)*2654435761, width)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs++
			if buckets[i] == buckets[j] {
				collisions++
			}
		}
	}
	rate := float64(collisions) / float64(pairs)
	if rate < 0.5/width || rate > 2.0/width {
		t.Fatalf("collision rate %.5f far from 1/%d", rate, width)
	}
}

func TestFamilyRowsIndependent(t *testing.T) {
	f := NewFamily(4, 11)
	if f.Depth() != 4 {
		t.Fatalf("depth = %d, want 4", f.Depth())
	}
	// Rows must hash differently (they are independently seeded).
	same := 0
	for key := uint32(0); key < 1000; key++ {
		if f.Row(0).Hash(key) == f.Row(1).Hash(key) {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("rows 0 and 1 agree on %d/1000 keys", same)
	}
}

func TestFamilyBucketSignMatchesRow(t *testing.T) {
	f := NewFamily(3, 21)
	for j := 0; j < 3; j++ {
		for key := uint32(0); key < 500; key++ {
			b1, s1 := f.BucketSign(j, key, 128)
			b2, s2 := f.Row(j).BucketSign(key, 128)
			if b1 != b2 || s1 != s2 {
				t.Fatalf("row %d key %d: BucketSign mismatch", j, key)
			}
		}
	}
}

func TestFamilyBucketsSignsMatchesPerRow(t *testing.T) {
	f := NewFamily(4, 33)
	buckets := make([]int32, 4)
	signs := make([]float64, 4)
	for key := uint32(0); key < 500; key++ {
		f.BucketsSigns(key, 256, buckets, signs)
		for j := 0; j < 4; j++ {
			b, s := f.BucketSign(j, key, 256)
			if buckets[j] != int32(b) || signs[j] != s {
				t.Fatalf("row %d key %d: BucketsSigns (%d,%g) != BucketSign (%d,%g)",
					j, key, buckets[j], signs[j], b, s)
			}
		}
	}
}

func TestFamilyPanicsOnZeroDepth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for depth 0")
		}
	}()
	NewFamily(0, 1)
}

func TestBucketSignConsistentWithParts(t *testing.T) {
	h := NewTabulation(77)
	f := func(key uint32) bool {
		b, s := h.BucketSign(key, 512)
		return b == h.Bucket(key, 512) && s == h.Sign(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTabulationHash(b *testing.B) {
	h := NewTabulation(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= h.Hash(uint32(i))
	}
	_ = sink
}

func BenchmarkTabulationBucketSign(b *testing.B) {
	h := NewTabulation(1)
	var sink int
	for i := 0; i < b.N; i++ {
		bb, _ := h.BucketSign(uint32(i), 4096)
		sink += bb
	}
	_ = sink
}
