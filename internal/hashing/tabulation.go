// Package hashing provides the hash families used throughout the sketches:
// 3-wise independent tabulation hashing for bucket and sign assignment
// (Appendix B of the paper), and MurmurHash3 for mapping strings to 32-bit
// feature identifiers (Section 8.3).
//
// Tabulation hashing splits a 32-bit key into four bytes and XORs together
// four random 64-bit table entries, one per byte. The resulting family is
// 3-wise independent, which the paper found empirically indistinguishable
// from the O(log(d/δ))-wise independence required by the analysis.
package hashing

import (
	"math"
	"math/rand"
)

// tableBytes is the number of byte positions in a 32-bit key.
const tableBytes = 4

// tableSize is the number of entries per byte table.
const tableSize = 256

// Tabulation is a 3-wise independent hash function over 32-bit keys producing
// 64-bit outputs. The zero value is not usable; construct with NewTabulation.
type Tabulation struct {
	tables [tableBytes][tableSize]uint64
}

// NewTabulation returns a tabulation hash seeded deterministically by seed.
func NewTabulation(seed int64) *Tabulation {
	rng := rand.New(rand.NewSource(seed))
	t := &Tabulation{}
	for i := 0; i < tableBytes; i++ {
		for j := 0; j < tableSize; j++ {
			t.tables[i][j] = rng.Uint64()
		}
	}
	return t
}

// Hash returns the 64-bit tabulation hash of key.
func (t *Tabulation) Hash(key uint32) uint64 {
	return t.tables[0][byte(key)] ^
		t.tables[1][byte(key>>8)] ^
		t.tables[2][byte(key>>16)] ^
		t.tables[3][byte(key>>24)]
}

// Sign returns ±1 derived from the top bit of the hash, independent of the
// low bits used for bucket selection.
func (t *Tabulation) Sign(key uint32) float64 { return signOf(t.Hash(key)) }

// signOf is −1 when h's top bit is set and +1 otherwise. It copies that bit
// into the sign bit of 1.0 instead of branching on it: the bit is set for
// half of all keys, so a branch on it would be mispredicted half the time.
func signOf(h uint64) float64 {
	return math.Float64frombits(h&(1<<63) | math.Float64bits(1))
}

// Bucket returns a bucket index in [0, width) from the low bits of the hash.
// width need not be a power of two; reduction uses the high-quality
// multiply-shift trick on the low 32 bits to avoid modulo bias hot paths.
func (t *Tabulation) Bucket(key uint32, width int) int {
	return int((t.Hash(key) & 0xffffffff) * uint64(width) >> 32)
}

// BucketSign returns both the bucket in [0, width) and the ±1 sign with a
// single hash evaluation. This is the hot path for every sketch update.
func (t *Tabulation) BucketSign(key uint32, width int) (int, float64) {
	h := t.Hash(key)
	return int((h & 0xffffffff) * uint64(width) >> 32), signOf(h)
}

// Family is a collection of independent tabulation hash functions, one per
// sketch row. Rows are seeded by splitting the base seed.
type Family struct {
	rows []*Tabulation
}

// NewFamily returns depth independent tabulation hashes derived from seed.
func NewFamily(depth int, seed int64) *Family {
	if depth <= 0 {
		panic("hashing: family depth must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]*Tabulation, depth)
	for i := range rows {
		rows[i] = NewTabulation(rng.Int63())
	}
	return &Family{rows: rows}
}

// Depth returns the number of rows in the family.
func (f *Family) Depth() int { return len(f.rows) }

// Row returns the hash function for row j.
func (f *Family) Row(j int) *Tabulation { return f.rows[j] }

// BucketSign returns the bucket and sign for key in row j with width buckets.
func (f *Family) BucketSign(j int, key uint32, width int) (int, float64) {
	return f.rows[j].BucketSign(key, width)
}

// BucketsSigns fills buckets[j] and signs[j] for every row with a single
// hash evaluation per row. This is the hash-once primitive backing the fused
// predict+update hot path: callers record the locations once per (feature,
// example) pair and reuse them for the margin, the gradient write, and the
// post-update estimate. Both slices must have length ≥ Depth().
func (f *Family) BucketsSigns(key uint32, width int, buckets []int32, signs []float64) {
	for j, row := range f.rows {
		b, sign := row.BucketSign(key, width)
		buckets[j] = int32(b)
		signs[j] = sign
	}
}
