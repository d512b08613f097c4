package cluster

import (
	"slices"
	"sync"

	"wmsketch/internal/stream"
)

// Heavy lists. A node keeps every origin's heavy list in index order:
// ascending keys, each key once (indexOrder). Frames carry lists in weight
// order, stream.SortWeighted's canonical order, which the golden streams
// pin: a full frame's list, a delta's upserts in the new version's weight
// order and its removed keys in the base's. Lists change order twice: when
// a frame is built, once per (origin, base → version) through the frame
// memo, and when a frame is applied.
//
// In index order, diffing two versions and patching a base with a delta
// are each one walk over sorted lists. They implement these map-based
// definitions (refDiffHeavy and refApplyHeavyDiff in the tests):
//
//	diff:  prev := map of base (last entry per key wins)
//	       for w in cur: upsert w unless prev holds w.Weight for it;
//	                     delete w.Index from prev
//	       removed: every base entry whose key is still in prev, in base order
//	apply: m := map of base; delete removed keys; set upserts (last wins);
//	       return m's entries in canonical (SortWeighted) order
//
// Given two lists as a node keeps them, diffHeavy returns what the diff
// definition returns for the same lists in weight order. Given a base as a
// node keeps it, applyHeavyDiff returns the apply definition's result in
// index order, for any removed keys and upserts, repeated or in any order.
// A list that is not canonical (a key repeated, or any order), which only
// a faulty or hostile peer sends, is put in index order when it is
// adopted, keeping the last entry of each key: the entry the maps keep.

// indexOrder sorts ws in place by index and keeps only the last entry of
// each key, the one a map filled from ws in order ends up holding. It
// returns the shortened list.
func indexOrder(ws []stream.Weighted) []stream.Weighted {
	stream.SortByIndex(ws) // stable: a key's entries stay in list order
	n := 0
	for i, w := range ws {
		if i+1 < len(ws) && ws[i+1].Index == w.Index {
			continue
		}
		ws[n] = w
		n++
	}
	return ws[:n]
}

// weightOrder returns a copy of ws in weight order.
func weightOrder(ws []stream.Weighted) []stream.Weighted {
	out := slices.Clone(ws)
	stream.SortWeighted(out)
	return out
}

// diffHeavy computes the heavy-list delta from base to cur, both in index
// order, in the order a delta frame carries it: the keys of base entries
// whose key cur lacks, in base's weight order, and the entries of cur that
// are new or changed, in cur's weight order.
func diffHeavy(base, cur []stream.Weighted) (removed []uint32, upserts []stream.Weighted) {
	s := heavyPool.Get().(*heavyScratch)
	defer heavyPool.Put(s)
	gone, up := s.a[:0], s.b[:0]
	i, j := 0, 0
	for i < len(base) && j < len(cur) {
		b, c := base[i], cur[j]
		switch {
		case b.Index < c.Index:
			gone = append(gone, b)
			i++
		case c.Index < b.Index:
			up = append(up, c)
			j++
		default:
			if b.Weight != c.Weight {
				up = append(up, c)
			}
			i++
			j++
		}
	}
	gone = append(gone, base[i:]...)
	up = append(up, cur[j:]...)
	s.a, s.b = gone, up
	if len(gone) > 0 {
		stream.SortWeighted(gone)
		removed = make([]uint32, len(gone))
		for i, w := range gone {
			removed[i] = w.Index
		}
	}
	if len(up) > 0 {
		upserts = weightOrder(up)
	}
	return removed, upserts
}

// applyHeavyDiff patches base, in index order, with a delta's removed keys
// and upserts, in any order and possibly repeated, and returns the result
// in index order. The last upsert of a key wins, and an upsert wins over a
// removal of its key. The delta's lists are not modified.
func applyHeavyDiff(base []stream.Weighted, removed []uint32, upserts []stream.Weighted) []stream.Weighted {
	s := heavyPool.Get().(*heavyScratch)
	defer heavyPool.Put(s)
	rm := append(s.keys[:0], removed...)
	slices.Sort(rm)
	up := indexOrder(append(s.a[:0], upserts...))
	// Drop the removed keys from base, then merge in the upserts.
	kept := s.b[:0]
	r := 0
	for _, w := range base {
		for r < len(rm) && rm[r] < w.Index {
			r++
		}
		if r == len(rm) || rm[r] != w.Index {
			kept = append(kept, w)
		}
	}
	out := s.c[:0]
	i, u := 0, 0
	for i < len(kept) && u < len(up) {
		switch k, w := kept[i], up[u]; {
		case k.Index < w.Index:
			out = append(out, k)
			i++
		case w.Index < k.Index:
			out = append(out, w)
			u++
		default:
			out = append(out, w)
			i++
			u++
		}
	}
	out = append(append(out, kept[i:]...), up[u:]...)
	s.keys, s.a, s.b, s.c = rm, up, kept, out
	return slices.Clone(out)
}

// heavyScratch is the reusable working memory of one diffHeavy or
// applyHeavyDiff call.
type heavyScratch struct {
	keys    []uint32
	a, b, c []stream.Weighted
}

var heavyPool = sync.Pool{New: func() any { return new(heavyScratch) }}
