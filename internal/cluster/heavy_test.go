package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"wmsketch/internal/stream"
)

// refDiffHeavy and refApplyHeavyDiff are the map-based definitions the
// linear merges replaced, kept as the reference they are checked against.
func refDiffHeavy(base, cur []stream.Weighted) (removed []uint32, upserts []stream.Weighted) {
	prev := make(map[uint32]float64, len(base))
	for _, w := range base {
		prev[w.Index] = w.Weight
	}
	for _, w := range cur {
		if old, ok := prev[w.Index]; !ok || old != w.Weight {
			upserts = append(upserts, w)
		}
		delete(prev, w.Index)
	}
	for _, w := range base {
		if _, stillThere := prev[w.Index]; stillThere {
			removed = append(removed, w.Index)
		}
	}
	return removed, upserts
}

func refApplyHeavyDiff(base []stream.Weighted, removed []uint32, upserts []stream.Weighted) []stream.Weighted {
	m := make(map[uint32]float64, len(base)+len(upserts))
	for _, w := range base {
		m[w.Index] = w.Weight
	}
	for _, k := range removed {
		delete(m, k)
	}
	for _, w := range upserts {
		m[w.Index] = w.Weight
	}
	out := make([]stream.Weighted, 0, len(m))
	for k, w := range m {
		out = append(out, stream.Weighted{Index: k, Weight: w})
	}
	// The comparison sort the reference always used; keys are unique, so
	// its order is total.
	sort.Slice(out, func(i, j int) bool {
		ai, aj := math.Abs(out[i].Weight), math.Abs(out[j].Weight)
		if ai != aj {
			return ai > aj
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// sameWeighted compares entry by entry, weights by bits.
func sameWeighted(a, b []stream.Weighted) bool {
	return slices.EqualFunc(a, b, func(x, y stream.Weighted) bool {
		return x.Index == y.Index && math.Float64bits(x.Weight) == math.Float64bits(y.Weight)
	})
}

var heavyEdgeWeights = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1023, 1, -1, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
}

// heavyPair draws a base list of n entries over keys [0, keySpace) and a
// cur list that keeps, changes, drops and adds entries. With canonical
// set, keys are unique and both lists are in canonical order, as on every
// node; otherwise keys may repeat and order is arbitrary, as a hostile or
// buggy peer's full frame may be.
func heavyPair(rng *rand.Rand, n int, canonical bool) (base, cur []stream.Weighted) {
	keySpace := 2*n + 1
	weight := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return heavyEdgeWeights[rng.Intn(len(heavyEdgeWeights))]
		case 1:
			return float64(rng.Intn(7) - 3)
		default:
			return rng.NormFloat64()
		}
	}
	draw := func(k int) []stream.Weighted {
		var keys []int
		if canonical {
			keys = rng.Perm(keySpace)[:min(k, keySpace)]
		} else {
			for range k {
				keys = append(keys, rng.Intn(keySpace))
			}
		}
		ws := make([]stream.Weighted, len(keys))
		for i, key := range keys {
			ws[i] = stream.Weighted{Index: uint32(key) << uint(rng.Intn(3)*8), Weight: weight()}
		}
		return ws
	}
	base = draw(n)
	cur = slices.Clone(base)
	for i := range cur {
		switch rng.Intn(4) {
		case 0:
			cur[i].Weight = weight()
		case 1:
			cur[i].Weight = -cur[i].Weight // flips ±0 too, which compares equal
		}
	}
	rng.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
	cur = cur[:rng.Intn(len(cur)+1)]
	cur = append(cur, draw(rng.Intn(n/4+2))...)
	if canonical {
		seen := make(map[uint32]bool)
		cur = slices.DeleteFunc(cur, func(w stream.Weighted) bool {
			dup := seen[w.Index]
			seen[w.Index] = true
			return dup
		})
		seen = make(map[uint32]bool)
		base = slices.DeleteFunc(base, func(w stream.Weighted) bool {
			dup := seen[w.Index]
			seen[w.Index] = true
			return dup
		})
		stream.SortWeighted(base)
		stream.SortWeighted(cur)
	}
	return base, cur
}

func heavySizes(rng *rand.Rand) []int {
	sizes := []int{0, 1, 2, 3, 10, 64, 256, 2048, 5000}
	for range 30 {
		sizes = append(sizes, rng.Intn(5001))
	}
	return sizes
}

// TestDiffHeavyMatchesReference: on canonical lists, as every node
// produces them, and on arbitrary ones with repeated keys, the linear
// diff returns exactly the map-based result, order included.
func TestDiffHeavyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, canonical := range []bool{true, false} {
		for _, n := range heavySizes(rng) {
			base, cur := heavyPair(rng, n, canonical)
			wantR, wantU := refDiffHeavy(base, cur)
			gotR, gotU := diffHeavy(base, cur)
			if !slices.Equal(gotR, wantR) || !sameWeighted(gotU, wantU) {
				t.Fatalf("canonical=%v n=%d: removed %d/%d, upserts %d/%d (got/want) differ",
					canonical, n, len(gotR), len(wantR), len(gotU), len(wantU))
			}
		}
	}
}

// TestApplyHeavyDiffMatchesReference replays diffs onto their base — the
// canonical case takes the merge path — and also replays arbitrary diffs:
// repeated keys in base, removed and upserts, upserts out of order, keys
// removed and upserted at once, and removals of absent keys.
func TestApplyHeavyDiffMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	check := func(what string, base []stream.Weighted, removed []uint32, upserts []stream.Weighted) {
		t.Helper()
		want := refApplyHeavyDiff(base, removed, upserts)
		got := applyHeavyDiff(base, removed, upserts)
		if !sameWeighted(got, want) {
			t.Fatalf("%s: base %d, removed %d, upserts %d: result differs from the reference (%d vs %d entries)",
				what, len(base), len(removed), len(upserts), len(got), len(want))
		}
	}
	for _, canonical := range []bool{true, false} {
		for _, n := range heavySizes(rng) {
			base, cur := heavyPair(rng, n, canonical)
			removed, upserts := refDiffHeavy(base, cur)
			check(fmt.Sprintf("diff replay (canonical=%v)", canonical), base, removed, upserts)
			// Replay gives cur back, up to the sign of zero weights, which
			// the diff (comparing with ==) does not ship.
			if got := applyHeavyDiff(base, removed, upserts); canonical && !slices.Equal(got, cur) {
				t.Fatalf("n=%d: replaying the diff onto base does not give cur", n)
			}

			// Arbitrary frames: removals drawn from base, cur and absent
			// keys, with repeats; upserts shuffled, some of them removed too.
			var rm []uint32
			for range rng.Intn(n/2 + 2) {
				switch rng.Intn(3) {
				case 0:
					if len(base) > 0 {
						rm = append(rm, base[rng.Intn(len(base))].Index)
					}
				case 1:
					if len(cur) > 0 {
						rm = append(rm, cur[rng.Intn(len(cur))].Index)
					}
				default:
					rm = append(rm, uint32(rng.Intn(4*n+8)))
				}
			}
			up := slices.Clone(cur)
			rng.Shuffle(len(up), func(i, j int) { up[i], up[j] = up[j], up[i] })
			if len(up) > 0 {
				up = append(up, stream.Weighted{Index: up[0].Index, Weight: -up[0].Weight - 1})
			}
			check(fmt.Sprintf("arbitrary (canonical=%v)", canonical), base, rm, up)
		}
	}
}

// TestHeavyDiffEdgeCases pins the cases the map semantics decide and a
// merge could get wrong.
func TestHeavyDiffEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	w := func(k uint32, v float64) stream.Weighted { return stream.Weighted{Index: k, Weight: v} }
	diffCases := []struct {
		name      string
		base, cur []stream.Weighted
	}{
		{"empty", nil, nil},
		{"all new", nil, []stream.Weighted{w(3, 1), w(1, -1)}},
		{"all gone", []stream.Weighted{w(3, 1), w(1, -1)}, nil},
		{"zero sign flip is no change", []stream.Weighted{w(1, 0)}, []stream.Weighted{w(1, negZero)}},
		{"equal magnitude, sign flip", []stream.Weighted{w(1, 2), w(2, -2)}, []stream.Weighted{w(1, -2), w(2, -2)}},
		{"subnormal and huge", []stream.Weighted{w(1, math.MaxFloat64), w(2, math.SmallestNonzeroFloat64)},
			[]stream.Weighted{w(1, math.MaxFloat64), w(2, 2*math.SmallestNonzeroFloat64)}},
		{"repeated key in base", []stream.Weighted{w(5, 1), w(5, 2), w(6, 1), w(6, 1)}, []stream.Weighted{w(5, 2)}},
		{"repeated key in cur", []stream.Weighted{w(5, 1)}, []stream.Weighted{w(5, 1), w(5, 1), w(7, 1), w(7, 1)}},
		{"keys in high bytes", []stream.Weighted{w(1<<31, 1), w(1<<24, 1)}, []stream.Weighted{w(1<<24, 2), w(1<<16, 1)}},
	}
	for _, c := range diffCases {
		wantR, wantU := refDiffHeavy(c.base, c.cur)
		gotR, gotU := diffHeavy(c.base, c.cur)
		if !slices.Equal(gotR, wantR) || !sameWeighted(gotU, wantU) {
			t.Errorf("diff %s: got (%v, %v), want (%v, %v)", c.name, gotR, gotU, wantR, wantU)
		}
	}
	applyCases := []struct {
		name    string
		base    []stream.Weighted
		removed []uint32
		upserts []stream.Weighted
	}{
		{"empty", nil, nil, nil},
		{"removed and upserted", []stream.Weighted{w(1, 3), w(2, 1)}, []uint32{1}, []stream.Weighted{w(1, 0.5)}},
		{"removed absent key", []stream.Weighted{w(1, 3)}, []uint32{9, 9}, nil},
		{"repeated upsert, last wins", []stream.Weighted{w(1, 3)}, nil, []stream.Weighted{w(2, 5), w(2, 0.1)}},
		{"repeated base key, last wins", []stream.Weighted{w(1, 3), w(1, 0.25), w(2, 1)}, nil, nil},
		{"non-canonical upserts", []stream.Weighted{w(1, 3)}, nil, []stream.Weighted{w(4, 0.1), w(3, 9), w(2, -9)}},
		{"non-canonical base", []stream.Weighted{w(1, 0.1), w(2, 3)}, []uint32{7}, []stream.Weighted{w(3, 1)}},
		{"signed zeros", []stream.Weighted{w(2, negZero), w(1, 0)}, nil, []stream.Weighted{w(0, negZero)}},
		{"ties on magnitude", []stream.Weighted{w(4, 1), w(2, -1)}, nil, []stream.Weighted{w(3, -1), w(1, 1)}},
	}
	for _, c := range applyCases {
		want := refApplyHeavyDiff(c.base, c.removed, c.upserts)
		got := applyHeavyDiff(c.base, c.removed, c.upserts)
		if !sameWeighted(got, want) {
			t.Errorf("apply %s: got %v, want %v", c.name, got, want)
		}
	}
}

// BenchmarkApplyHeavyDiff replays a typical round's heavy diff (a tenth
// of the entries changed, a few in and out) onto canonical lists of the
// sizes gossip ships.
func BenchmarkApplyHeavyDiff(b *testing.B) {
	for _, n := range []int{64, 2048, 8192} {
		rng := rand.New(rand.NewSource(4))
		base := make([]stream.Weighted, n)
		for i, k := range rng.Perm(4 * n)[:n] {
			base[i] = stream.Weighted{Index: uint32(k), Weight: rng.NormFloat64()}
		}
		stream.SortWeighted(base)
		cur := slices.Clone(base)
		for i := range cur {
			if rng.Intn(10) == 0 {
				cur[i].Weight += rng.NormFloat64() / 10
			}
		}
		cur = cur[:n-n/50]
		for i := range n / 50 {
			cur = append(cur, stream.Weighted{Index: uint32(4*n + i), Weight: rng.NormFloat64()})
		}
		stream.SortWeighted(cur)
		removed, upserts := diffHeavy(base, cur)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				applyHeavyDiff(base, removed, upserts)
			}
		})
	}
}
