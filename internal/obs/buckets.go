package obs

// Shared bucket layouts. Rationale (OBSERVABILITY.md has the long form):
// fixed buckets make every observation O(buckets) scan + one atomic add,
// with no per-observation allocation and no rebalancing, at the cost of
// quantile error bounded by the bucket width — the HDR-histogram tradeoff.
// Exponential spacing keeps that error roughly constant in relative terms.

// LatencyBuckets spans 100µs to 10s: the serving path's p50 sits near 1ms
// on loopback (BENCH_serve.json), gossip rounds near 10ms, and anything
// past 10s is an outage, not a latency.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets spans 64B to 256MB in powers of four: gossip idle rounds sit
// near 512B, delta frames in the tens of KB, full syncs and streaming
// ingest bodies up to the 256MB request cap.
var SizeBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536, 262144,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
}

// BatchBuckets spans 1 to 16384 examples: wmbench -serve-bench sends JSON
// batches of 64 and binary frames of 512, streaming ingest applies chunks
// of 512, and /v1/estimate caps at 65536.
var BatchBuckets = []float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 16384,
}

// ExponentialBuckets returns n bounds starting at start, each factor times
// the previous — the generator for HDR-style layouts where relative error
// stays near (factor-1)/2. Panics on a non-positive start, a factor ≤ 1,
// or n < 1 (bucket layout is a compile-time decision).
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
