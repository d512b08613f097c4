// Package obs is the repository's stdlib-only metrics layer: atomic
// counters and gauges, fixed-bucket histograms, and a process-wide Registry
// with labeled families and Prometheus-text exposition (OBSERVABILITY.md).
//
// The package is built for the serving hot path. Instruments are handles
// obtained once at registration time; every observation afterwards is a
// handful of atomic operations with zero heap allocations (BenchmarkObserve
// pins this), so counters can sit inside the per-request and per-gossip-
// round code without moving the benchmarks. Label lookup, map access, and
// string work all happen at registration, never at observation.
//
// Cardinality is deliberately bounded: label values are pre-registered
// (route patterns, frame kinds, status classes), not derived from request
// data, so a hostile client cannot grow the registry.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer instrument. The zero value
// is NOT usable — obtain counters from a Registry (or a Vec) so they are
// exposed; all methods are safe for concurrent use and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative n is ignored: counters only go up, and a negative
// add is always a caller bug that would otherwise corrupt rate queries.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer instrument that can go up and down (in-flight
// requests, pool sizes). Safe for concurrent use, allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat is a float64 accumulated with a CAS loop on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket histogram in the HDR spirit: bucket bounds
// are chosen once at construction (see Buckets helpers), each observation
// is one atomic increment plus one atomic float add, and quantiles are
// estimated by interpolating within the landing bucket. There is no
// per-observation allocation and no lock.
type Histogram struct {
	// upper holds the ascending inclusive upper bounds; counts has one
	// extra slot for the implicit +Inf bucket. counts[i] is the number of
	// observations in (upper[i-1], upper[i]].
	upper  []float64
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
}

// NewHistogram builds a standalone histogram over the given ascending
// bucket upper bounds. Standalone histograms are for client-side use
// (e.g. wmbench -serve-bench's request latency); registry-exposed histograms
// come from Registry.Histogram / HistogramVec. Panics on empty, unsorted,
// or non-finite bounds — bucket layout is a compile-time decision.
func NewHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	for i, b := range upper {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram bucket bounds must be finite")
		}
		if i > 0 && b <= upper[i-1] {
			panic("obs: histogram bucket bounds must be strictly ascending")
		}
	}
	return &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// Observe records one value. NaN observations are dropped (they would
// poison the sum and every quantile; a NaN latency or size is always an
// upstream bug, not a measurement).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveDuration records d in seconds, the Prometheus base unit.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.value() }

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the landing bucket. The error is bounded by the bucket width;
// choose bounds accordingly (ExponentialBuckets keeps relative error
// roughly constant). Returns 0 on an empty histogram; observations in the
// +Inf bucket clamp to the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	lower := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= rank && n > 0 {
			if i == len(h.upper) {
				// +Inf bucket: no finite upper bound to interpolate toward.
				return h.upper[len(h.upper)-1]
			}
			frac := (rank - cum) / n
			return lower + frac*(h.upper[i]-lower)
		}
		cum += n
		if i < len(h.upper) {
			lower = h.upper[i]
		}
	}
	return h.upper[len(h.upper)-1]
}
