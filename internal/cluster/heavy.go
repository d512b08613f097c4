package cluster

import (
	"math"
	"slices"

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
// A delta frame's heavy lists implement these map-based definitions
// (refDiffHeavy and refApplyHeavyDiff in the tests):
//
//	diff:  prev := map of base (last entry per key wins)
//	       for w in cur: upsert w unless prev holds w.Weight for it;
//	                     delete w.Index from prev
//	       removed: every base entry whose key is still in prev, in base order
//	apply: m := map of base; delete removed keys; set upserts (last wins);
//	       return m's entries in canonical (SortWeighted) order
//
// A node never diffs two full lists to build a frame. It keeps each older
// version as a reverse delta against the next newer one (reverse, or what
// applyDiff overwrote), composes those (mergeHeavy), and builds the diff
// from the composed delta and the current list (forward): the diff
// definition's result for the two lists in weight order. Given a base as
// a node keeps it, applyDiff returns the apply definition's result in
// index order, for any removed keys and upserts, repeated or in any
// order. A list that is not canonical (a key repeated, or any order),
// which only a faulty or hostile peer sends, is put in index order when it
// is adopted, keeping the last entry of each key: the entry the maps keep.
//
// heavyPatch.apply and forward visit the keys a delta names, and cross the
// runs of the full list between them in a tight loop, so their branches
// depend on the delta's size, not the list's.

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

// applyDiff patches base, in index order, with a delta's removed keys and
// upserts, in any order and possibly repeated, and returns the patch in s:
// the result in index order, and base's reverse delta against it, the
// entries of base the delta dropped or overwrote and the keys it added,
// in index order. The last upsert of a key wins, and an upsert wins over a
// removal of its key. The delta's lists are not modified. The patch's
// lists are s's, valid until s is used again.
func (s *heavyScratch) applyDiff(base []stream.Weighted, removed []uint32, upserts []stream.Weighted) *heavyPatch {
	rm := append(s.keys[:0], removed...)
	slices.Sort(rm)
	up := indexOrder(append(s.a[:0], upserts...))
	s.keys, s.a = rm, up
	s.patch.apply(base, rm, up)
	return &s.patch
}

// heavyPatch is one patched heavy list and the reverse delta of the list
// it patched. Its lists are reused from one apply to the next.
type heavyPatch struct {
	out     []stream.Weighted
	changed []stream.Weighted // the entries of base dropped or overwritten
	added   []uint32          // the keys of the upserts base lacks
}

// apply sets p.out to base, in index order, without the keys of rm
// (ascending, possibly repeated) and with the entries of up (index order,
// each key once) set: an entry of up wins over the removal of its key. It
// records base's reverse delta against p.out in p.changed and p.added, so
// that applying (p.added, p.changed) to p.out gives base back bit for bit.
func (p *heavyPatch) apply(base []stream.Weighted, rm []uint32, up []stream.Weighted) {
	out := slices.Grow(p.out[:0], len(base)+len(up))[:len(base)+len(up)]
	changed, added := p.changed[:0], p.added[:0]
	n, b, r, u := 0, 0, 0, 0
	for r < len(rm) || u < len(up) {
		// The next key the delta names, and whether it sets an entry.
		key, set := uint32(0), u < len(up) && (r == len(rm) || up[u].Index <= rm[r])
		if set {
			key = up[u].Index
		} else {
			key = rm[r]
		}
		for r < len(rm) && rm[r] == key {
			r++
		}
		for b < len(base) && base[b].Index < key {
			out[n] = base[b]
			n++
			b++
		}
		had := b < len(base) && base[b].Index == key
		if had {
			changed = append(changed, base[b])
			b++
		}
		if set {
			out[n] = up[u]
			n++
			u++
			if !had {
				added = append(added, key)
			}
		}
	}
	n += copy(out[n:], base[b:])
	p.out, p.changed, p.added = out[:n], changed, added
}

// reverse returns older's reverse delta against newer, both lists in
// index order: the entries of older that newer changed (in any bit) or
// dropped, and the keys newer added, in index order. The lists are s's,
// valid until s is used again.
func (s *heavyScratch) reverse(older, newer []stream.Weighted) (changed []stream.Weighted, added []uint32) {
	ch, add := s.a[:0], s.keys[:0]
	i, j := 0, 0
	for i < len(older) && j < len(newer) {
		o, n := older[i], newer[j]
		switch {
		case o.Index < n.Index:
			ch = append(ch, o)
			i++
		case n.Index < o.Index:
			add = append(add, n.Index)
			j++
		default:
			if math.Float64bits(o.Weight) != math.Float64bits(n.Weight) {
				ch = append(ch, o)
			}
			i++
			j++
		}
	}
	ch = append(ch, older[i:]...)
	for _, n := range newer[j:] {
		add = append(add, n.Index)
	}
	s.a, s.keys = ch, add
	return ch, add
}

// forward returns, as new lists, the heavy lists of the delta frame from
// older to newer, for the older list that the reverse delta (changed,
// added) against newer describes: older holds the changed entries, lacks the
// added keys, and holds newer's entry for any other key. The lists come in
// the order a delta frame carries them: the keys of older entries whose
// key newer lacks, in older's weight order, and the entries of newer that
// are new or changed, in newer's weight order. A composed delta
// (mergeHeavy) may name an entry older and newer share, or add a key newer
// lacks; neither changes the result.
func (s *heavyScratch) forward(changed []stream.Weighted, added []uint32, newer []stream.Weighted) (removed []uint32, upserts []stream.Weighted) {
	gone, up := s.a[:0], s.b[:0]
	c, i, k := 0, 0, 0
	for i < len(changed) || k < len(added) {
		if k == len(added) || i < len(changed) && changed[i].Index < added[k] {
			o := changed[i]
			i++
			for c < len(newer) && newer[c].Index < o.Index {
				c++
			}
			switch {
			case c == len(newer) || newer[c].Index != o.Index:
				gone = append(gone, o)
			case newer[c].Weight != o.Weight:
				up = append(up, newer[c])
			}
			continue
		}
		key := added[k]
		k++
		for c < len(newer) && newer[c].Index < key {
			c++
		}
		if c < len(newer) && newer[c].Index == key {
			up = append(up, newer[c])
		}
	}
	s.a, s.b = gone, up
	return weightOrderKeys(gone), weightOrderOrNil(up)
}

// mergeHeavy composes the heavy parts of two reverse deltas, newer's (nh,
// na) and older's (oh, oa), into one that takes newer's newer version back
// to older's older one, appending it to dh and da. A key older's delta
// names keeps older's verdict, an entry or absence; any other key newer's
// delta names keeps newer's. All lists are in index order.
func mergeHeavy(dh []stream.Weighted, da []uint32, nh []stream.Weighted, na []uint32, oh []stream.Weighted, oa []uint32) ([]stream.Weighted, []uint32) {
	i, j, a := 0, 0, 0
	for i < len(nh) || j < len(oh) {
		if j == len(oh) || i < len(nh) && nh[i].Index < oh[j].Index {
			w := nh[i]
			i++
			for a < len(oa) && oa[a] < w.Index {
				a++
			}
			if a == len(oa) || oa[a] != w.Index {
				dh = append(dh, w)
			}
			continue
		}
		if i < len(nh) && nh[i].Index == oh[j].Index {
			i++
		}
		dh = append(dh, oh[j])
		j++
	}
	i, j, h := 0, 0, 0
	for i < len(na) || j < len(oa) {
		if j == len(oa) || i < len(na) && na[i] < oa[j] {
			k := na[i]
			i++
			for h < len(oh) && oh[h].Index < k {
				h++
			}
			if h == len(oh) || oh[h].Index != k {
				da = append(da, k)
			}
			continue
		}
		if i < len(na) && na[i] == oa[j] {
			i++
		}
		da = append(da, oa[j])
		j++
	}
	return dh, da
}

// weightOrderKeys sorts ws, a scratch list, into weight order and returns
// its keys in that order (nil for none): a delta's removed keys.
func weightOrderKeys(ws []stream.Weighted) []uint32 {
	if len(ws) == 0 {
		return nil
	}
	stream.SortWeighted(ws)
	keys := make([]uint32, len(ws))
	for i, w := range ws {
		keys[i] = w.Index
	}
	return keys
}

// weightOrderOrNil is weightOrder, nil for an empty list: a delta's
// upserts.
func weightOrderOrNil(ws []stream.Weighted) []stream.Weighted {
	if len(ws) == 0 {
		return nil
	}
	return weightOrder(ws)
}

// heavyScratch is the reusable working memory of the methods above.
type heavyScratch struct {
	keys  []uint32
	a, b  []stream.Weighted
	patch heavyPatch
}
