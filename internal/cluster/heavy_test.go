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

// kept is ws as a node keeps it: an index-ordered copy, one entry per key.
func kept(ws []stream.Weighted) []stream.Weighted { return indexOrder(slices.Clone(ws)) }

// isCanonical reports whether ws is in weight order with unique keys, as
// every node writes its lists into frames.
func isCanonical(ws []stream.Weighted) bool {
	return len(kept(ws)) == len(ws) && sameWeighted(ws, weightOrder(ws))
}

// checkDiff compares diffHeavy on the lists as a node keeps them with the
// reference: bit for bit and in order on those lists in weight order, and
// also on base and cur themselves when they are canonical. On any lists,
// the diff must patch base to what the reference diff patches it to, up
// to the sign of zero weights (== compares them equal, so neither diff
// ships a sign flip of a zero, and of two entries with a repeated key in
// cur, either may be the one compared).
func checkDiff(t *testing.T, what string, base, cur []stream.Weighted) {
	t.Helper()
	gotR, gotU := diffHeavy(kept(base), kept(cur))
	wantR, wantU := refDiffHeavy(weightOrder(kept(base)), weightOrder(kept(cur)))
	if !slices.Equal(gotR, wantR) || !sameWeighted(gotU, wantU) {
		t.Fatalf("%s: removed %d/%d, upserts %d/%d (got/want) differ on the kept lists",
			what, len(gotR), len(wantR), len(gotU), len(wantU))
	}
	rawR, rawU := refDiffHeavy(base, cur)
	if isCanonical(base) && isCanonical(cur) && (!slices.Equal(gotR, rawR) || !sameWeighted(gotU, rawU)) {
		t.Fatalf("%s: on canonical lists the diff differs from the reference's", what)
	}
	if !slices.Equal(refApplyHeavyDiff(base, gotR, gotU), refApplyHeavyDiff(base, rawR, rawU)) {
		t.Fatalf("%s: the diff patches base differently from the reference diff", what)
	}
}

// checkApply compares applyDiff on base as a node keeps it with the
// reference on base itself, bit for bit once both are in weight order. The
// result must be in strict index order and the delta's lists unchanged,
// and the reverse delta it returns must give base back bit for bit.
func checkApply(t *testing.T, what string, base []stream.Weighted, removed []uint32, upserts []stream.Weighted) {
	t.Helper()
	rm, up := slices.Clone(removed), slices.Clone(upserts)
	p := new(heavyScratch).applyDiff(kept(base), removed, upserts)
	got, changed, added := p.out, p.changed, p.added
	if back := refApplyHeavyDiff(got, added, changed); !sameWeighted(back, weightOrder(kept(base))) {
		t.Fatalf("%s: the reverse delta (%d changed, %d added) does not give base back", what, len(changed), len(added))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Index >= got[i].Index {
			t.Fatalf("%s: result not in strict index order at %d", what, i)
		}
	}
	if want := refApplyHeavyDiff(base, removed, upserts); !sameWeighted(weightOrder(got), want) {
		t.Fatalf("%s: base %d, removed %d, upserts %d: result differs from the reference (%d vs %d entries)",
			what, len(base), len(removed), len(upserts), len(got), len(want))
	}
	if !slices.Equal(rm, removed) || !sameWeighted(up, upserts) {
		t.Fatalf("%s: apply modified the delta's lists", what)
	}
}

// TestDiffHeavyMatchesReference: on canonical lists, as every node
// produces them, and on arbitrary ones with repeated keys in any order,
// the diff of the index-ordered lists returns the map-based result.
func TestDiffHeavyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, canonical := range []bool{true, false} {
		for _, n := range heavySizes(rng) {
			base, cur := heavyPair(rng, n, canonical)
			checkDiff(t, fmt.Sprintf("canonical=%v n=%d", canonical, n), base, cur)
		}
	}
}

// TestApplyHeavyDiffMatchesReference replays diffs onto their base, and
// also replays arbitrary diffs: repeated keys in base, removed and
// upserts, upserts out of order, keys removed and upserted at once, and
// removals of absent keys.
func TestApplyHeavyDiffMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, canonical := range []bool{true, false} {
		for _, n := range heavySizes(rng) {
			base, cur := heavyPair(rng, n, canonical)
			removed, upserts := refDiffHeavy(base, cur)
			checkApply(t, fmt.Sprintf("diff replay (canonical=%v)", canonical), base, removed, upserts)
			// Replay gives cur back, up to the sign of zero weights, which
			// the diff (comparing with ==) does not ship.
			if canonical {
				r, u := diffHeavy(kept(base), kept(cur))
				if got := new(heavyScratch).applyDiff(kept(base), r, u).out; !slices.Equal(got, kept(cur)) {
					t.Fatalf("n=%d: replaying the diff onto base does not give cur", n)
				}
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
			checkApply(t, fmt.Sprintf("arbitrary (canonical=%v)", canonical), base, rm, up)
		}
	}
}

// diffHeavy is the delta frame's heavy lists from base to cur, both in
// index order, as a node builds them: base's reverse delta against cur,
// then the frame's lists from it.
func diffHeavy(base, cur []stream.Weighted) (removed []uint32, upserts []stream.Weighted) {
	changed, added := new(heavyScratch).reverse(base, cur)
	return new(heavyScratch).forward(changed, added, cur)
}

// heavyStep derives the next version of a list in index order: weights
// change or flip sign (signed zeros included), entries leave, keys join.
func heavyStep(rng *rand.Rand, ws []stream.Weighted) []stream.Weighted {
	next := make([]stream.Weighted, 0, len(ws))
	for _, w := range ws {
		switch rng.Intn(5) {
		case 0:
			continue
		case 1:
			w.Weight = -w.Weight
		case 2:
			w.Weight = heavyEdgeWeights[rng.Intn(len(heavyEdgeWeights))]
		}
		next = append(next, w)
	}
	for range rng.Intn(len(ws)/4 + 2) {
		next = append(next, stream.Weighted{Index: uint32(rng.Intn(2*len(ws) + 8)), Weight: rng.NormFloat64()})
	}
	return kept(next)
}

// TestReverseHeavyMatchesReference: a reverse delta, applied to the newer
// list, gives the older one back bit for bit, ±0 weights included, and so
// do reverse deltas composed over several versions; the delta frame built
// from either is the one the reference diff builds from the two lists.
func TestReverseHeavyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range heavySizes(rng) {
		b, _ := heavyPair(rng, n, true)
		chain := [][]stream.Weighted{kept(b)}
		for range 4 {
			chain = append(chain, heavyStep(rng, chain[len(chain)-1]))
		}
		cur := chain[len(chain)-1]
		var changed []stream.Weighted
		var added []uint32
		for age := 1; age < len(chain); age++ {
			older, newer := chain[len(chain)-1-age], chain[len(chain)-age]
			oc, oa := new(heavyScratch).reverse(older, newer)
			if !slices.Equal(oc, kept(oc)) || !slices.IsSorted(oa) {
				t.Fatalf("n=%d: reverse delta lists not in index order", n)
			}
			if back := refApplyHeavyDiff(newer, oa, oc); !sameWeighted(back, weightOrder(older)) {
				t.Fatalf("n=%d: the reverse delta does not give the older list back", n)
			}
			if age == 1 {
				changed, added = oc, oa
			} else {
				changed, added = mergeHeavy(nil, nil, changed, added, oc, oa)
			}
			var p heavyPatch
			p.apply(cur, added, changed)
			if !sameWeighted(p.out, older) {
				t.Fatalf("n=%d, age %d: patching with the composed reverse delta does not give the older list back", n, age)
			}
			wr, wu := refDiffHeavy(weightOrder(older), weightOrder(cur))
			gr, gu := new(heavyScratch).forward(changed, added, cur)
			if !slices.Equal(gr, wr) || !sameWeighted(gu, wu) {
				t.Fatalf("n=%d, age %d: the delta built from the reverse delta differs from the reference's", n, age)
			}
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
		{"repeated key in cur, last differs", []stream.Weighted{w(5, 1)}, []stream.Weighted{w(5, 1), w(5, 3)}},
		{"keys in high bytes", []stream.Weighted{w(1<<31, 1), w(1<<24, 1)}, []stream.Weighted{w(1<<24, 2), w(1<<16, 1)}},
	}
	for _, c := range diffCases {
		checkDiff(t, "diff "+c.name, c.base, c.cur)
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
		checkApply(t, "apply "+c.name, c.base, c.removed, c.upserts)
	}
	// A full frame's list is kept with the last entry of each key.
	if got := kept([]stream.Weighted{w(9, 1), w(2, 5), w(9, -4), w(2, 0.5), w(7, 0)}); !sameWeighted(got,
		[]stream.Weighted{w(2, 0.5), w(7, 0), w(9, -4)}) {
		t.Fatalf("indexOrder kept %v", got)
	}
}

// heavyBenchPair is a base and a next version of an n-entry heavy list, in
// index order, shaped like a measured gossip version of a 2048-entry AWM
// heap: 866 upserts, 145 of them new keys, and 145 removals.
func heavyBenchPair(n int) (base, cur []stream.Weighted) {
	rng := rand.New(rand.NewSource(4))
	base = make([]stream.Weighted, n)
	for i, k := range rng.Perm(4 * n)[:n] {
		base[i] = stream.Weighted{Index: uint32(k), Weight: rng.NormFloat64()}
	}
	cur = slices.Clone(base)
	for i := range cur {
		if rng.Intn(1000) < 352 {
			cur[i].Weight += rng.NormFloat64() / 10
		}
	}
	rng.Shuffle(n, func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
	out := n * 145 / 2048
	cur = cur[:n-out]
	for i := range out {
		cur = append(cur, stream.Weighted{Index: uint32(4*n + i), Weight: rng.NormFloat64()})
	}
	return indexOrder(base), indexOrder(cur)
}

var heavyBenchSizes = []int{64, 2048, 8192}

// BenchmarkDiffHeavy builds one version's heavy delta in its two steps:
// the base's reverse delta against the new version, which a node takes
// once when it adopts the version whole, and the frame's lists in weight
// order from it, which buildFrame takes once per frame.
func BenchmarkDiffHeavy(b *testing.B) {
	for _, n := range heavyBenchSizes {
		base, cur := heavyBenchPair(n)
		b.Run(fmt.Sprintf("n=%d/reverse", n), func(b *testing.B) {
			var s heavyScratch
			b.ReportAllocs()
			for b.Loop() {
				s.reverse(base, cur)
			}
		})
		changed, added := new(heavyScratch).reverse(base, cur)
		b.Run(fmt.Sprintf("n=%d/frame", n), func(b *testing.B) {
			var s heavyScratch
			b.ReportAllocs()
			for b.Loop() {
				s.forward(changed, added, cur)
			}
		})
	}
}

// BenchmarkApplyHeavyDiff patches the base with that delta, as a receiver
// does for each delta frame it adopts.
func BenchmarkApplyHeavyDiff(b *testing.B) {
	for _, n := range heavyBenchSizes {
		base, cur := heavyBenchPair(n)
		removed, upserts := diffHeavy(base, cur)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var s heavyScratch
			b.ReportAllocs()
			for b.Loop() {
				s.applyDiff(base, removed, upserts)
			}
		})
	}
}

// BenchmarkHeavyIndexOrder sorts a learner's heavy list, in heap order,
// into the index order PublishLocal keeps.
func BenchmarkHeavyIndexOrder(b *testing.B) {
	for _, n := range heavyBenchSizes {
		_, cur := heavyBenchPair(n)
		rand.New(rand.NewSource(5)).Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
		buf := make([]stream.Weighted, len(cur))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				copy(buf, cur)
				indexOrder(buf)
			}
		})
	}
}
