// Package topk provides an indexed min-heap used everywhere the paper keeps
// a fixed-capacity "active set" of heavy items: the AWM-Sketch heap
// (Algorithm 2), the passive WM-Sketch heap, the truncation baselines
// (Algorithms 3 and 4), and the top-K tracking of the unconstrained logistic
// regression baseline.
//
// Entries carry a 32-bit key, a model weight, and a score. The heap is a
// min-heap on score, so the root is always the eviction candidate. For
// magnitude-ordered heaps the score is |weight|; the probabilistic
// truncation baseline instead orders by reservoir weight.
//
// The key → heap-position index is an open-addressed hash table with linear
// probing rather than a Go map: Get/Contains/UpdateMagnitude are the hottest
// branch of every AWM-Sketch update (one membership probe per feature per
// example), and the flat table keeps them allocation-free with a single
// cache line touched in the common case.
package topk

import (
	"cmp"
	"slices"
)

// Entry is a heap element.
type Entry struct {
	Key    uint32
	Weight float64
	Score  float64
	// slot is the entry's position in the open-addressed index, maintained
	// so heap swaps can update the index in O(1) without re-probing.
	slot int32
}

// indexSlot is one cell of the open-addressed key → heap-position table.
// pos < 0 marks an empty cell; deletion backward-shifts, so no tombstones.
type indexSlot struct {
	key uint32
	pos int32
}

// Heap is a fixed-capacity indexed min-heap on Entry.Score. The zero value
// is not usable; construct with New.
type Heap struct {
	capacity int
	entries  []Entry
	slots    []indexSlot // open-addressed index, power-of-two length
	mask     uint32      // len(slots)-1, for probe wraparound
	shift    uint32      // 32-log2(len(slots)), for multiply-shift hashing
}

// New returns an empty heap with the given capacity. Capacity must be
// positive.
func New(capacity int) *Heap {
	if capacity <= 0 {
		panic("topk: capacity must be positive")
	}
	// Size the index at ≥4× capacity (load factor ≤ 0.25) so linear probe
	// chains stay near 1 even when the heap is full. Even at the paper's
	// largest active set (2048 entries) the table is 64 KB — small next to
	// the cache traffic of the sketch itself — and membership probes are the
	// single hottest operation of an AWM-Sketch update.
	size := 8
	for size < 4*capacity {
		size <<= 1
	}
	h := &Heap{
		capacity: capacity,
		entries:  make([]Entry, 0, capacity),
		slots:    make([]indexSlot, size),
		mask:     uint32(size - 1),
		shift:    32 - log2(uint32(size)),
	}
	for i := range h.slots {
		h.slots[i].pos = -1
	}
	return h
}

func log2(v uint32) uint32 {
	var n uint32
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// home returns the preferred index cell for key (Fibonacci multiply-shift:
// the high output bits of the multiply are well mixed, unlike key & mask).
func (h *Heap) home(key uint32) uint32 {
	return (key * 0x9E3779B9) >> h.shift
}

// findSlot returns the index cell holding key, or -1 when absent.
func (h *Heap) findSlot(key uint32) int32 {
	i := h.home(key)
	for {
		s := h.slots[i]
		if s.pos < 0 {
			return -1
		}
		if s.key == key {
			return int32(i)
		}
		i = (i + 1) & h.mask
	}
}

// indexInsert stores key → pos and returns the cell used. key must be absent.
func (h *Heap) indexInsert(key uint32, pos int32) int32 {
	i := h.home(key)
	for h.slots[i].pos >= 0 {
		i = (i + 1) & h.mask
	}
	h.slots[i] = indexSlot{key: key, pos: pos}
	return int32(i)
}

// indexDelete empties cell i and backward-shifts the probe chain so lookups
// never need tombstones.
func (h *Heap) indexDelete(i uint32) {
	mask := h.mask
	for {
		h.slots[i] = indexSlot{pos: -1}
		j := i
		for {
			j = (j + 1) & mask
			s := h.slots[j]
			if s.pos < 0 {
				return
			}
			// Move s back to the vacated cell iff its home precedes or equals
			// the vacancy on the cyclic probe path (i ∈ [home, j)).
			if (j-h.home(s.key))&mask >= (j-i)&mask {
				h.slots[i] = s
				h.entries[s.pos].slot = int32(i)
				i = j
				break
			}
		}
	}
}

// Len returns the number of entries currently stored.
func (h *Heap) Len() int { return len(h.entries) }

// Cap returns the fixed capacity.
func (h *Heap) Cap() int { return h.capacity }

// Full reports whether the heap is at capacity.
func (h *Heap) Full() bool { return len(h.entries) == h.capacity }

// Contains reports whether key is stored.
func (h *Heap) Contains(key uint32) bool {
	return h.findSlot(key) >= 0
}

// Get returns the weight stored for key.
func (h *Heap) Get(key uint32) (float64, bool) {
	s := h.findSlot(key)
	if s < 0 {
		return 0, false
	}
	return h.entries[h.slots[s].pos].Weight, true
}

// Ref is a stable reference to a stored entry: the entry's cell in the
// open-addressed index. A Ref obtained from GetRef stays valid until the
// next *structural* change to the heap — Insert, Remove, PopMin, or Reset —
// because deletions backward-shift index cells. Weight/score updates
// (Update, UpdateMagnitude, UpdateMagnitudeRef, ScaleWeights) never move
// cells and keep refs valid. The fused sketch update paths use refs to
// probe each feature once per example instead of once per access.
type Ref int32

// NoRef is the sentinel for "key absent".
const NoRef Ref = -1

// GetRef probes for key once, returning a stable reference usable with
// WeightRef/UpdateMagnitudeRef. ok is false when key is absent.
func (h *Heap) GetRef(key uint32) (Ref, bool) {
	s := h.findSlot(key)
	if s < 0 {
		return NoRef, false
	}
	return Ref(s), true
}

// WeightRef returns the current weight of the entry r refers to.
func (h *Heap) WeightRef(r Ref) float64 {
	return h.entries[h.slots[r].pos].Weight
}

// UpdateMagnitudeRef is UpdateMagnitude without the index probe: r must be a
// valid reference obtained since the heap's last structural change.
func (h *Heap) UpdateMagnitudeRef(r Ref, weight float64) {
	i := h.slots[r].pos
	h.entries[i].Weight = weight
	h.entries[i].Score = abs(weight)
	h.fix(int(i))
}

// Min returns the root entry (smallest score) without removing it.
// ok is false when the heap is empty.
func (h *Heap) Min() (Entry, bool) {
	if len(h.entries) == 0 {
		return Entry{}, false
	}
	return h.entries[0], true
}

// Insert adds key with the given weight and score. It panics if key is
// already present or the heap is full; callers decide eviction policy.
func (h *Heap) Insert(key uint32, weight, score float64) {
	if h.findSlot(key) >= 0 {
		panic("topk: duplicate insert")
	}
	if len(h.entries) == h.capacity {
		panic("topk: insert into full heap")
	}
	i := int32(len(h.entries))
	slot := h.indexInsert(key, i)
	h.entries = append(h.entries, Entry{Key: key, Weight: weight, Score: score, slot: slot})
	h.up(int(i))
}

// InsertMagnitude adds key with score = |weight|.
func (h *Heap) InsertMagnitude(key uint32, weight float64) {
	h.Insert(key, weight, abs(weight))
}

// Update replaces the weight and score for an existing key and restores heap
// order. It panics if key is absent.
func (h *Heap) Update(key uint32, weight, score float64) {
	s := h.findSlot(key)
	if s < 0 {
		panic("topk: update of absent key")
	}
	i := h.slots[s].pos
	h.entries[i].Weight = weight
	h.entries[i].Score = score
	h.fix(int(i))
}

// UpdateMagnitude replaces the weight for key with score = |weight|.
func (h *Heap) UpdateMagnitude(key uint32, weight float64) {
	h.Update(key, weight, abs(weight))
}

// Remove deletes key and returns its entry. ok is false when absent.
func (h *Heap) Remove(key uint32) (Entry, bool) {
	s := h.findSlot(key)
	if s < 0 {
		return Entry{}, false
	}
	i := h.slots[s].pos
	e := h.entries[i]
	h.removeAt(int(i))
	return e, true
}

// PopMin removes and returns the root entry. ok is false when empty.
func (h *Heap) PopMin() (Entry, bool) {
	if len(h.entries) == 0 {
		return Entry{}, false
	}
	e := h.entries[0]
	h.removeAt(0)
	return e, true
}

// Entries returns a copy of the stored entries in unspecified order.
func (h *Heap) Entries() []Entry {
	out := make([]Entry, len(h.entries))
	copy(out, h.entries)
	return out
}

// Keys returns a copy of the stored keys in unspecified order.
func (h *Heap) Keys() []uint32 {
	out := make([]uint32, len(h.entries))
	for i := range h.entries {
		out[i] = h.entries[i].Key
	}
	return out
}

// TopK returns up to k entries with the largest scores, in descending score
// order, equal scores by ascending key. For magnitude heaps this is the
// top-K heaviest weights.
func (h *Heap) TopK(k int) []Entry {
	out := h.Entries()
	slices.SortFunc(out, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Key, b.Key))
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// ScaleWeights multiplies every stored weight (and score, preserving the
// magnitude ordering) by c. Used for explicit ℓ2 decay of an active set.
func (h *Heap) ScaleWeights(c float64) {
	for i := range h.entries {
		h.entries[i].Weight *= c
		h.entries[i].Score *= abs(c)
	}
	// Scaling by a constant preserves heap order; no re-heapify needed.
}

// Reset removes all entries.
func (h *Heap) Reset() {
	h.entries = h.entries[:0]
	for i := range h.slots {
		h.slots[i] = indexSlot{pos: -1}
	}
}

// MemoryBytes returns the cost-model footprint: 4 bytes each for the key and
// the weight, plus 4 bytes per auxiliary score when aux is true (Section 7.1
// charges auxiliary values like reservoir keys separately).
func (h *Heap) MemoryBytes(aux bool) int {
	per := 8
	if aux {
		per = 12
	}
	return per * h.capacity
}

func (h *Heap) removeAt(i int) {
	last := len(h.entries) - 1
	h.indexDelete(uint32(h.entries[i].slot))
	if i != last {
		h.entries[i] = h.entries[last]
		h.slots[h.entries[i].slot].pos = int32(i)
	}
	h.entries = h.entries[:last]
	if i < len(h.entries) {
		h.fix(i)
	}
}

func (h *Heap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.entries[parent].Score <= h.entries[i].Score {
			break
		}
		h.swap(parent, i)
		i = parent
	}
}

func (h *Heap) down(i int) bool {
	moved := false
	n := len(h.entries)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h.entries[right].Score < h.entries[left].Score {
			smallest = right
		}
		if h.entries[i].Score <= h.entries[smallest].Score {
			break
		}
		h.swap(i, smallest)
		i = smallest
		moved = true
	}
	return moved
}

func (h *Heap) swap(i, j int) {
	h.entries[i], h.entries[j] = h.entries[j], h.entries[i]
	h.slots[h.entries[i].slot].pos = int32(i)
	h.slots[h.entries[j].slot].pos = int32(j)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
