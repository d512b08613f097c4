package topk

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// checkInvariant verifies the min-heap property and index consistency.
func checkInvariant(t *testing.T, h *Heap) {
	t.Helper()
	for i := 1; i < len(h.entries); i++ {
		parent := (i - 1) / 2
		if h.entries[parent].Score > h.entries[i].Score {
			t.Fatalf("heap violated at %d: parent score %g > child %g",
				i, h.entries[parent].Score, h.entries[i].Score)
		}
	}
	// Every entry must be findable through the open-addressed index, and its
	// recorded slot must point back at it.
	occupied := 0
	for _, s := range h.slots {
		if s.pos >= 0 {
			occupied++
			if int(s.pos) >= len(h.entries) || h.entries[s.pos].Key != s.key {
				t.Fatalf("index slot stale for key %d (pos %d)", s.key, s.pos)
			}
		}
	}
	if occupied != len(h.entries) {
		t.Fatalf("index has %d occupied slots, want %d", occupied, len(h.entries))
	}
	for i := range h.entries {
		e := h.entries[i]
		if h.slots[e.slot].key != e.Key || int(h.slots[e.slot].pos) != i {
			t.Fatalf("entry %d (key %d) has stale slot back-pointer", i, e.Key)
		}
		if s := h.findSlot(e.Key); s != e.slot {
			t.Fatalf("findSlot(%d) = %d, want %d (broken probe chain)", e.Key, s, e.slot)
		}
	}
}

func TestHeapInsertGetMin(t *testing.T) {
	h := New(8)
	h.InsertMagnitude(1, -5)
	h.InsertMagnitude(2, 3)
	h.InsertMagnitude(3, 10)
	checkInvariant(t, h)
	if w, ok := h.Get(1); !ok || w != -5 {
		t.Fatalf("Get(1) = %g,%v want -5,true", w, ok)
	}
	min, ok := h.Min()
	if !ok || min.Key != 2 {
		t.Fatalf("Min = %+v, want key 2 (|3| smallest)", min)
	}
	if h.Len() != 3 || h.Cap() != 8 || h.Full() {
		t.Fatal("Len/Cap/Full inconsistent")
	}
}

func TestHeapUpdateReorders(t *testing.T) {
	h := New(4)
	h.InsertMagnitude(1, 1)
	h.InsertMagnitude(2, 2)
	h.InsertMagnitude(3, 3)
	h.UpdateMagnitude(3, 0.5)
	checkInvariant(t, h)
	min, _ := h.Min()
	if min.Key != 3 {
		t.Fatalf("after update, min key = %d, want 3", min.Key)
	}
	h.UpdateMagnitude(3, -100)
	min, _ = h.Min()
	if min.Key != 1 {
		t.Fatalf("after second update, min key = %d, want 1", min.Key)
	}
}

func TestHeapRemove(t *testing.T) {
	h := New(8)
	for i := uint32(0); i < 8; i++ {
		h.InsertMagnitude(i, float64(i+1))
	}
	e, ok := h.Remove(4)
	if !ok || e.Key != 4 || e.Weight != 5 {
		t.Fatalf("Remove(4) = %+v,%v", e, ok)
	}
	checkInvariant(t, h)
	if h.Contains(4) {
		t.Fatal("key 4 still present after removal")
	}
	if _, ok := h.Remove(4); ok {
		t.Fatal("second removal should report absent")
	}
}

func TestHeapPopMinOrder(t *testing.T) {
	h := New(64)
	rng := rand.New(rand.NewSource(1))
	for i := uint32(0); i < 64; i++ {
		h.InsertMagnitude(i, rng.NormFloat64()*100)
	}
	prev := math.Inf(-1)
	for {
		e, ok := h.PopMin()
		if !ok {
			break
		}
		if e.Score < prev {
			t.Fatalf("PopMin out of order: %g after %g", e.Score, prev)
		}
		prev = e.Score
	}
	if h.Len() != 0 {
		t.Fatal("heap not empty after draining")
	}
}

func TestHeapTopKDescending(t *testing.T) {
	h := New(16)
	weights := []float64{5, -9, 1, 7, -2, 8, -8.5, 0.5}
	for i, w := range weights {
		h.InsertMagnitude(uint32(i), w)
	}
	got := h.TopK(3)
	if len(got) != 3 {
		t.Fatalf("TopK returned %d entries", len(got))
	}
	wantKeys := []uint32{1, 6, 5} // |-9|, |-8.5|, |8|
	for i, e := range got {
		if e.Key != wantKeys[i] {
			t.Fatalf("TopK[%d].Key = %d, want %d", i, e.Key, wantKeys[i])
		}
	}
	// Requesting more than stored returns all, sorted.
	all := h.TopK(100)
	if len(all) != len(weights) {
		t.Fatalf("TopK(100) returned %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Score > all[i-1].Score {
			t.Fatal("TopK not descending")
		}
	}
}

// TestHeapTopKEqualScores: entries with equal scores, whatever their sign
// or insertion order, come out by ascending key.
func TestHeapTopKEqualScores(t *testing.T) {
	h := New(16)
	for _, e := range []struct {
		key uint32
		w   float64
	}{{9, 2}, {4, -3}, {7, -2}, {2, 2}, {8, 3}, {5, -2}, {1, 0.5}} {
		h.InsertMagnitude(e.key, e.w)
	}
	var keys []uint32
	for _, e := range h.TopK(6) {
		keys = append(keys, e.Key)
	}
	if want := []uint32{4, 8, 2, 5, 7, 9}; !slices.Equal(keys, want) {
		t.Fatalf("TopK keys %v, want %v", keys, want)
	}
}

func TestHeapScaleWeights(t *testing.T) {
	h := New(4)
	h.InsertMagnitude(1, 4)
	h.InsertMagnitude(2, -8)
	h.ScaleWeights(0.5)
	checkInvariant(t, h)
	if w, _ := h.Get(1); w != 2 {
		t.Fatalf("Get(1) = %g after scale, want 2", w)
	}
	if w, _ := h.Get(2); w != -4 {
		t.Fatalf("Get(2) = %g after scale, want -4", w)
	}
	min, _ := h.Min()
	if min.Key != 1 {
		t.Fatal("scaling changed relative order")
	}
}

func TestHeapDuplicateInsertPanics(t *testing.T) {
	h := New(4)
	h.InsertMagnitude(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate insert")
		}
	}()
	h.InsertMagnitude(1, 2)
}

func TestHeapFullInsertPanics(t *testing.T) {
	h := New(2)
	h.InsertMagnitude(1, 1)
	h.InsertMagnitude(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on insert into full heap")
		}
	}()
	h.InsertMagnitude(3, 3)
}

func TestHeapUpdateAbsentPanics(t *testing.T) {
	h := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on update of absent key")
		}
	}()
	h.UpdateMagnitude(9, 1)
}

func TestHeapZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 0")
		}
	}()
	New(0)
}

func TestHeapReset(t *testing.T) {
	h := New(4)
	h.InsertMagnitude(1, 1)
	h.InsertMagnitude(2, 2)
	h.Reset()
	if h.Len() != 0 || h.Contains(1) {
		t.Fatal("Reset did not clear heap")
	}
	h.InsertMagnitude(1, 5) // reusable after reset
	if w, _ := h.Get(1); w != 5 {
		t.Fatal("heap unusable after Reset")
	}
}

func TestHeapMemoryBytes(t *testing.T) {
	h := New(128)
	if got := h.MemoryBytes(false); got != 1024 {
		t.Fatalf("MemoryBytes(false) = %d, want 1024", got)
	}
	if got := h.MemoryBytes(true); got != 1536 {
		t.Fatalf("MemoryBytes(true) = %d, want 1536", got)
	}
}

func TestHeapRandomOperationsInvariant(t *testing.T) {
	// Fuzz a long random op sequence against a reference map.
	h := New(64)
	ref := map[uint32]float64{}
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 20000; step++ {
		key := uint32(rng.Intn(128))
		switch op := rng.Intn(4); {
		case op == 0 && !h.Contains(key) && !h.Full():
			w := rng.NormFloat64()
			h.InsertMagnitude(key, w)
			ref[key] = w
		case op == 1 && h.Contains(key):
			w := rng.NormFloat64()
			h.UpdateMagnitude(key, w)
			ref[key] = w
		case op == 2 && h.Contains(key):
			h.Remove(key)
			delete(ref, key)
		case op == 3 && h.Len() > 0:
			e, _ := h.PopMin()
			// Verify it really was the minimum |weight| in the reference.
			for k, w := range ref {
				if math.Abs(w) < e.Score-1e-12 {
					t.Fatalf("step %d: popped score %g but key %d has |w|=%g",
						step, e.Score, k, math.Abs(w))
				}
			}
			delete(ref, e.Key)
		}
	}
	checkInvariant(t, h)
	if len(ref) != h.Len() {
		t.Fatalf("reference size %d != heap size %d", len(ref), h.Len())
	}
	for k, w := range ref {
		if got, ok := h.Get(k); !ok || got != w {
			t.Fatalf("key %d: heap weight %g, want %g", k, got, w)
		}
	}
}

func TestHeapTopKMatchesSortQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) > 60 {
			raw = raw[:60]
		}
		h := New(64)
		clean := make([]float64, 0, len(raw))
		for i, w := range raw {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				continue
			}
			if h.Contains(uint32(i)) {
				continue
			}
			h.InsertMagnitude(uint32(i), w)
			clean = append(clean, math.Abs(w))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(clean)))
		got := h.TopK(len(clean))
		for i := range got {
			if got[i].Score != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapGetRefStableAcrossWeightUpdates(t *testing.T) {
	h := New(16)
	for i := uint32(0); i < 16; i++ {
		h.InsertMagnitude(i, float64(i+1))
	}
	r, ok := h.GetRef(7)
	if !ok {
		t.Fatal("GetRef missed a present key")
	}
	if w := h.WeightRef(r); w != 8 {
		t.Fatalf("WeightRef = %g, want 8", w)
	}
	// Weight updates (including ones that reorder the heap) keep refs valid.
	h.UpdateMagnitude(3, 100)
	h.UpdateMagnitude(12, 0.25)
	h.UpdateMagnitudeRef(r, -50)
	if w, _ := h.Get(7); w != -50 {
		t.Fatalf("Get(7) = %g after UpdateMagnitudeRef, want -50", w)
	}
	if w := h.WeightRef(r); w != -50 {
		t.Fatalf("WeightRef = %g after update, want -50", w)
	}
	checkInvariant(t, h)
	if _, ok := h.GetRef(99); ok {
		t.Fatal("GetRef found an absent key")
	}
}

func TestHeapKeys(t *testing.T) {
	h := New(8)
	want := map[uint32]bool{3: true, 9: true, 27: true}
	for k := range want {
		h.InsertMagnitude(k, float64(k))
	}
	keys := h.Keys()
	if len(keys) != len(want) {
		t.Fatalf("Keys returned %d entries, want %d", len(keys), len(want))
	}
	for _, k := range keys {
		if !want[k] {
			t.Fatalf("Keys returned unexpected key %d", k)
		}
	}
}

// Benchmarks of the hottest heap operations: membership probes dominate the
// AWM-Sketch update path (one per feature per example).

func BenchmarkHeapGetHit(b *testing.B) {
	h := New(2048)
	for i := uint32(0); i < 2048; i++ {
		h.InsertMagnitude(i, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		w, _ := h.Get(uint32(i & 2047))
		sink += w
	}
	_ = sink
}

func BenchmarkHeapGetMiss(b *testing.B) {
	h := New(2048)
	for i := uint32(0); i < 2048; i++ {
		h.InsertMagnitude(i, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := h.Get(uint32(i&2047) + 100000); ok {
			b.Fatal("unexpected hit")
		}
	}
}

func BenchmarkHeapGetRefUpdate(b *testing.B) {
	h := New(2048)
	for i := uint32(0); i < 2048; i++ {
		h.InsertMagnitude(i, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := h.GetRef(uint32(i & 2047))
		h.UpdateMagnitudeRef(r, h.WeightRef(r)+0.001)
	}
}

func BenchmarkHeapInsertPopCycle(b *testing.B) {
	h := New(1024)
	for i := uint32(0); i < 1024; i++ {
		h.InsertMagnitude(i, float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := h.PopMin()
		h.InsertMagnitude(e.Key, e.Weight+1)
	}
}

func BenchmarkHeapUpdate(b *testing.B) {
	h := New(1024)
	for i := uint32(0); i < 1024; i++ {
		h.InsertMagnitude(i, float64(i))
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.UpdateMagnitude(uint32(i%1024), rng.NormFloat64()*1000)
	}
}

// BenchmarkHeapTopK sorts a full 2048-entry active set, as a top-k query
// against the AWM-Sketch does.
func BenchmarkHeapTopK(b *testing.B) {
	h := New(2048)
	rng := rand.New(rand.NewSource(1))
	for i := uint32(0); i < 2048; i++ {
		h.InsertMagnitude(i, rng.NormFloat64())
	}
	b.ReportAllocs()
	for b.Loop() {
		h.TopK(20)
	}
}
