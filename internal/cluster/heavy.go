package cluster

import (
	"math"
	"sync"

	"wmsketch/internal/stream"
)

// Heavy-list deltas. A delta frame carries an origin's heavy list as the
// keys removed since the base plus the entries upserted. diffHeavy builds
// that pair and applyHeavyDiff replays it. Both see each list through its
// positions in index order (radix-sorted, pooled scratch) and walk the
// lists side by side once, so a call builds no map and sorts nothing by
// weight. For every input, duplicate keys and non-canonical order
// included, they return what these map-based definitions return:
//
//	diffHeavy:      prev := map of base (last entry per key wins)
//	                for w in cur: upsert w unless prev holds w.Weight for it;
//	                              delete w.Index from prev
//	                removed: every base entry whose key is still in prev, in base order
//	applyHeavyDiff: m := map of base; delete removed keys; set upserts (last wins);
//	                return m's entries in canonical (SortWeighted) order
//
// Positions are packed under the index into one uint64 (index<<32 |
// position), so lists are limited to 2^32 entries; frames cap them at
// maxHeavyEntries.

// diffHeavy computes the difference from base to cur: keys present in
// base but not in cur, and entries of cur that are new or changed.
func diffHeavy(base, cur []stream.Weighted) (removed []uint32, upserts []stream.Weighted) {
	s := heavyPool.Get().(*heavyScratch)
	defer heavyPool.Put(s)
	bo := s.byIndex(&s.a, base)
	co := s.byIndex(&s.b, cur)
	kept := clearedFlags(&s.flagA, len(base))   // base entries whose key is in cur
	changed := clearedFlags(&s.flagB, len(cur)) // cur entries to upsert
	nRemoved, nUpserts := len(base), 0
	for i, j := 0, 0; j < len(co); {
		k := co[j] >> 32
		for i < len(bo) && bo[i]>>32 < k {
			i++
		}
		run := i
		for ; i < len(bo) && bo[i]>>32 == k; i++ {
			kept[position(bo[i])] = true
			nRemoved--
		}
		// Only the key's first entry in cur can match the base; once it
		// is seen the key is gone from prev and later ones always upsert.
		first := position(co[j])
		if i == run || base[position(bo[i-1])].Weight != cur[first].Weight {
			changed[first] = true
			nUpserts++
		}
		for j++; j < len(co) && co[j]>>32 == k; j++ {
			changed[position(co[j])] = true
			nUpserts++
		}
	}
	if nRemoved > 0 {
		removed = make([]uint32, 0, nRemoved)
		for p, w := range base {
			if !kept[p] {
				removed = append(removed, w.Index)
			}
		}
	}
	if nUpserts > 0 {
		upserts = make([]stream.Weighted, 0, nUpserts)
		for p, w := range cur {
			if changed[p] {
				upserts = append(upserts, w)
			}
		}
	}
	return removed, upserts
}

// applyHeavyDiff patches base with a heavy diff and returns the result in
// canonical order. The surviving base entries and the upserts are each
// already canonical when base and the diff came from canonical lists, and
// are then merged in one pass; otherwise the result is sorted.
func applyHeavyDiff(base []stream.Weighted, removed []uint32, upserts []stream.Weighted) []stream.Weighted {
	s := heavyPool.Get().(*heavyScratch)
	defer heavyPool.Put(s)
	bo := s.byIndex(&s.a, base)
	uo := s.byIndex(&s.b, upserts)
	ro := s.byKey(&s.c, removed)
	keepBase := clearedFlags(&s.flagA, len(base))
	keepUp := clearedFlags(&s.flagB, len(upserts))
	nBase, nUp := 0, 0
	for i, r, u := 0, 0, 0; i < len(bo) || u < len(uo); {
		var k uint64
		switch {
		case i == len(bo):
			k = uo[u] >> 32
		case u == len(uo):
			k = bo[i] >> 32
		default:
			k = min(bo[i]>>32, uo[u]>>32)
		}
		lastBase, lastUp := -1, -1
		for ; i < len(bo) && bo[i]>>32 == k; i++ {
			lastBase = position(bo[i])
		}
		for ; u < len(uo) && uo[u]>>32 == k; u++ {
			lastUp = position(uo[u])
		}
		if lastUp >= 0 {
			keepUp[lastUp] = true
			nUp++
			continue
		}
		for r < len(ro) && ro[r]>>32 < k {
			r++
		}
		if r == len(ro) || ro[r]>>32 != k {
			keepBase[lastBase] = true
			nBase++
		}
	}
	kb := s.w1[:0]
	for p, w := range base {
		if keepBase[p] {
			kb = append(kb, w)
		}
	}
	ku := s.w2[:0]
	for p, w := range upserts {
		if keepUp[p] {
			ku = append(ku, w)
		}
	}
	s.w1, s.w2 = kb, ku
	out := make([]stream.Weighted, 0, nBase+nUp)
	if !canonical(kb) || !canonical(ku) {
		out = append(append(out, kb...), ku...)
		stream.SortWeighted(out)
		return out
	}
	i, j := 0, 0
	for i < len(kb) && j < len(ku) {
		if before(ku[j], kb[i]) {
			out = append(out, ku[j])
			j++
		} else {
			out = append(out, kb[i])
			i++
		}
	}
	out = append(out, kb[i:]...)
	return append(out, ku[j:]...)
}

// before reports whether a precedes b in canonical order: larger |weight|
// first, then smaller index. On entries with distinct indices it is the
// strict total order SortWeighted produces.
func before(a, b stream.Weighted) bool {
	ma, mb := math.Abs(a.Weight), math.Abs(b.Weight)
	return ma > mb || (ma == mb && a.Index < b.Index)
}

// canonical reports whether ws is strictly in canonical order, which also
// means its indices are distinct.
func canonical(ws []stream.Weighted) bool {
	for i := 1; i < len(ws); i++ {
		if !before(ws[i-1], ws[i]) {
			return false
		}
	}
	return true
}

// heavyScratch is the reusable working memory of one diffHeavy or
// applyHeavyDiff call.
type heavyScratch struct {
	a, b, c, tmp []uint64 // index<<32 | position, in index order
	flagA, flagB []bool
	w1, w2       []stream.Weighted
	counts       [4][256]uint32
}

var heavyPool = sync.Pool{New: func() any { return new(heavyScratch) }}

// byIndex returns the positions of ws in index order, equal indices in
// ascending position, packed as index<<32 | position into *buf.
func (s *heavyScratch) byIndex(buf *[]uint64, ws []stream.Weighted) []uint64 {
	keys := (*buf)[:0]
	for p, w := range ws {
		keys = append(keys, uint64(w.Index)<<32|uint64(p))
	}
	keys = s.sortByIndex(keys)
	*buf = keys
	return keys
}

// byKey is byIndex for a list of bare keys.
func (s *heavyScratch) byKey(buf *[]uint64, ks []uint32) []uint64 {
	keys := (*buf)[:0]
	for p, k := range ks {
		keys = append(keys, uint64(k)<<32|uint64(p))
	}
	keys = s.sortByIndex(keys)
	*buf = keys
	return keys
}

// sortByIndex is a stable LSD radix sort of packed keys on their upper 32
// bits, one byte per pass, skipping bytes every key shares. Keys filled in
// position order therefore come out ordered by (index, position). The
// result is in keys' backing array.
func (s *heavyScratch) sortByIndex(keys []uint64) []uint64 {
	if len(keys) < 2 {
		return keys
	}
	if cap(s.tmp) < len(keys) {
		s.tmp = make([]uint64, len(keys))
	}
	c := &s.counts
	*c = [4][256]uint32{}
	for _, k := range keys {
		c[0][byte(k>>32)]++
		c[1][byte(k>>40)]++
		c[2][byte(k>>48)]++
		c[3][byte(k>>56)]++
	}
	src, dst := keys, s.tmp[:len(keys)]
	for p := range c {
		shift := 32 + 8*p
		at := &c[p]
		if int(at[byte(keys[0]>>shift)]) == len(keys) {
			continue
		}
		var sum uint32
		for i, n := range at {
			at[i], sum = sum, sum+n
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[at[b]] = k
			at[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
	return keys
}

// position extracts the list position from a packed key.
func position(k uint64) int { return int(uint32(k)) }

// clearedFlags returns *buf resized to n and all false.
func clearedFlags(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	f := (*buf)[:n]
	clear(f)
	return f
}
