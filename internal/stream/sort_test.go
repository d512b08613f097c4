package stream

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refSortWeighted is the comparison sort SortWeighted replaced, kept as the
// reference the radix sort is checked against.
func refSortWeighted(ws []Weighted) {
	sort.Slice(ws, func(i, j int) bool {
		ai, aj := refAbs(ws[i].Weight), refAbs(ws[j].Weight)
		if ai != aj {
			return ai > aj
		}
		return ws[i].Index < ws[j].Index
	})
}

func refAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// edgeWeights are the magnitudes a sort over float bits can get wrong.
var edgeWeights = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022, -0x1p-1022, // smallest normal
	0x1p-1023, -0x1p-1023, // a subnormal
	1, -1, 0.5, -0.5, 1e-300, -1e-300,
	math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300,
	math.Inf(1), math.Inf(-1),
}

// randomWeighted draws n entries with unique indices. Weights come from a
// few magnitude regimes, and about a third repeat an earlier magnitude,
// often with the sign flipped, so ties on |w| are common.
func randomWeighted(rng *rand.Rand, n int) []Weighted {
	ws := make([]Weighted, n)
	idx := rng.Perm(4 * (n + 1))
	for i := range ws {
		var w float64
		switch r := rng.Intn(6); {
		case i > 0 && r < 2:
			w = ws[rng.Intn(i)].Weight
			if rng.Intn(2) == 0 {
				w = -w
			}
		case r == 2:
			w = edgeWeights[rng.Intn(len(edgeWeights))]
		case r == 3:
			w = float64(rng.Intn(5) - 2) // small integers: many exact ties
		default:
			w = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
		// Indices spread over all four bytes so every index pass runs.
		ws[i] = Weighted{Index: uint32(idx[i]) * 0x01010101 >> uint(rng.Intn(24)), Weight: w}
	}
	// The shifted indices above may collide; keep the first of each.
	seen := make(map[uint32]bool, n)
	out := ws[:0]
	for _, w := range ws {
		if !seen[w.Index] {
			seen[w.Index] = true
			out = append(out, w)
		}
	}
	return out
}

// sameEntries compares entry by entry, weights by bits so that -0 and +0
// count as different entries.
func sameEntries(a, b []Weighted) bool {
	return slices.EqualFunc(a, b, func(x, y Weighted) bool {
		return x.Index == y.Index && math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
	})
}

// TestSortWeightedMatchesReference: on unique indices the canonical order
// is total, so the radix sort must reproduce the comparison sort exactly,
// for every length from 0 to 5000.
func TestSortWeightedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 3, 7, 64, 255, 256, 257, 1000, 2048, 5000}
	for n := 0; n < 40; n++ {
		sizes = append(sizes, rng.Intn(5001))
	}
	for _, n := range sizes {
		ws := randomWeighted(rng, n)
		want := slices.Clone(ws)
		refSortWeighted(want)
		got := slices.Clone(ws)
		SortWeighted(got)
		if !sameEntries(got, want) {
			t.Fatalf("n=%d: radix order differs from the reference", len(ws))
		}
	}
}

// TestSortWeightedEdgeCases: every edge magnitude, both signs, over
// adjacent indices, in every rotation of the input.
func TestSortWeightedEdgeCases(t *testing.T) {
	var ws []Weighted
	for i, w := range edgeWeights {
		ws = append(ws, Weighted{Index: uint32(2 * i), Weight: w}, Weighted{Index: uint32(2*i + 1), Weight: -w})
	}
	for r := range ws {
		in := append(slices.Clone(ws[r:]), ws[:r]...)
		want := slices.Clone(in)
		refSortWeighted(want)
		got := slices.Clone(in)
		SortWeighted(got)
		if !sameEntries(got, want) {
			t.Fatalf("rotation %d: got %v, want %v", r, got, want)
		}
	}
}

// TestSortWeightedStable: entries equal on the whole key (same index and
// magnitude, possibly opposite signs) keep their input order.
func TestSortWeightedStable(t *testing.T) {
	ws := []Weighted{{7, 2}, {3, -1}, {7, -2}, {3, 1}, {7, 2}, {9, 0}, {9, math.Copysign(0, -1)}}
	SortWeighted(ws)
	want := []Weighted{{7, 2}, {7, -2}, {7, 2}, {3, -1}, {3, 1}, {9, 0}, {9, math.Copysign(0, -1)}}
	if !sameEntries(ws, want) {
		t.Fatalf("got %v, want %v", ws, want)
	}
}

// TestSortByIndexMatchesStableSort: SortByIndex orders by index and keeps
// repeated indices in input order, as a stable comparison sort does.
func TestSortByIndexMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 2, 3, 64, 257, 2048, 5000} {
		ws := randomWeighted(rng, n)
		// Repeat some indices, out of order.
		for range len(ws) / 4 {
			ws[rng.Intn(len(ws))].Index = ws[rng.Intn(len(ws))].Index
		}
		want := slices.Clone(ws)
		slices.SortStableFunc(want, func(a, b Weighted) int { return cmp.Compare(a.Index, b.Index) })
		got := slices.Clone(ws)
		SortByIndex(got)
		if !sameEntries(got, want) {
			t.Fatalf("n=%d: index order differs from the stable reference", len(ws))
		}
	}
}

// TestSortWeightedOnAscendingIndices: a list whose indices already ascend
// skips the index passes, and still sorts as the stable reference does,
// with many exact magnitude ties, signed zeros and repeated indices; one
// whose indices ascend but for its last entry runs them.
func TestSortWeightedOnAscendingIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stable := func(ws []Weighted) {
		slices.SortStableFunc(ws, func(a, b Weighted) int {
			if c := cmp.Compare(refAbs(b.Weight), refAbs(a.Weight)); c != 0 {
				return c
			}
			return cmp.Compare(a.Index, b.Index)
		})
	}
	for _, n := range []int{64, 257, 2048, 5000} {
		ws := randomWeighted(rng, n)
		n := len(ws) // randomWeighted drops repeated indices
		slices.SortFunc(ws, func(a, b Weighted) int { return cmp.Compare(a.Index, b.Index) })
		for i := range ws {
			if rng.Intn(8) == 0 {
				ws[i].Weight = math.Copysign(0, float64(rng.Intn(2)*2-1))
			}
			if i > 0 && i < n-2 && rng.Intn(8) == 0 {
				ws[i].Index = ws[i-1].Index
			}
		}
		last := slices.Clone(ws)
		last[n-1].Index = 0 // below ws[n-2], which is unique and above ws[0]
		for name, in := range map[string][]Weighted{"ascending": ws, "all but the last ascending": last} {
			want := slices.Clone(in)
			stable(want)
			got := slices.Clone(in)
			SortWeighted(got)
			if !sameEntries(got, want) {
				t.Fatalf("n=%d, %s: the order differs from the stable reference", n, name)
			}
		}
	}
}

// BenchmarkSortWeighted sorts heavy lists of the sizes gossip ships: a
// small heap, wmserve's default 2048, and a large one.
func BenchmarkSortWeighted(b *testing.B) {
	for _, n := range []int{64, 2048, 8192} {
		rng := rand.New(rand.NewSource(3))
		ws := make([]Weighted, n)
		for i := range ws {
			ws[i] = Weighted{Index: uint32(rng.Intn(1 << 20)), Weight: rng.NormFloat64()}
		}
		buf := make([]Weighted, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				copy(buf, ws)
				SortWeighted(buf)
			}
		})
	}
}
