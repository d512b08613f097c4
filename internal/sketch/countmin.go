package sketch

import (
	"fmt"
	"math"

	"wmsketch/internal/hashing"
)

// CountMin is the Count-Min Sketch: a depth × width array of non-negative
// counters where each key increments one bucket per row and the point
// estimate is the minimum over rows. Estimates never underestimate true
// counts for non-negative streams (Cormode & Muthukrishnan 2005).
type CountMin struct {
	depth        int
	width        int
	seed         int64
	rows         [][]float64
	hashes       *hashing.Family
	conservative bool
	total        float64
}

// NewCountMin returns a Count-Min sketch with the given shape and seed.
func NewCountMin(depth, width int, seed int64) *CountMin {
	if depth <= 0 {
		panic(fmt.Sprintf("sketch: depth must be positive, got %d", depth))
	}
	if width <= 0 {
		panic(fmt.Sprintf("sketch: width must be positive, got %d", width))
	}
	rows, buckets := make([][]float64, depth), make([]float64, depth*width)
	for j := range rows {
		rows[j], buckets = buckets[:width], buckets[width:]
	}
	return &CountMin{
		depth:  depth,
		width:  width,
		seed:   seed,
		rows:   rows,
		hashes: hashing.NewFamily(depth, seed),
	}
}

// NewConservativeCountMin returns a Count-Min sketch using conservative
// update (Estan & Varghese): each increment raises a bucket only as far as
// needed to keep the estimate consistent, strictly reducing overestimation.
// This is an ablation extension beyond the paper's plain CM baseline.
func NewConservativeCountMin(depth, width int, seed int64) *CountMin {
	cm := NewCountMin(depth, width, seed)
	cm.conservative = true
	return cm
}

// Depth returns the number of rows.
func (cm *CountMin) Depth() int { return cm.depth }

// Width returns the buckets per row.
func (cm *CountMin) Width() int { return cm.width }

// Total returns the sum of all increments applied.
func (cm *CountMin) Total() float64 { return cm.total }

// Update adds delta (must be non-negative for the min estimate to remain an
// upper bound) to key's bucket in each row.
func (cm *CountMin) Update(key uint32, delta float64) {
	if delta < 0 {
		panic("sketch: CountMin requires non-negative updates")
	}
	cm.total += delta
	if cm.conservative {
		est := cm.Estimate(key) + delta
		for j := 0; j < cm.depth; j++ {
			b := cm.hashes.Row(j).Bucket(key, cm.width)
			if cm.rows[j][b] < est {
				cm.rows[j][b] = est
			}
		}
		return
	}
	for j := 0; j < cm.depth; j++ {
		b := cm.hashes.Row(j).Bucket(key, cm.width)
		cm.rows[j][b] += delta
	}
}

// Estimate returns the minimum bucket value for key across rows.
func (cm *CountMin) Estimate(key uint32) float64 {
	est := math.Inf(1)
	for j := 0; j < cm.depth; j++ {
		b := cm.hashes.Row(j).Bucket(key, cm.width)
		if v := cm.rows[j][b]; v < est {
			est = v
		}
	}
	return est
}

// Reset zeroes all counters.
func (cm *CountMin) Reset() {
	for j := range cm.rows {
		row := cm.rows[j]
		for b := range row {
			row[b] = 0
		}
	}
	cm.total = 0
}

// MemoryBytes returns the cost-model size: 4 bytes per counter.
func (cm *CountMin) MemoryBytes() int { return 4 * cm.depth * cm.width }
