package sketch

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestDiffApplyReconstructsExactly drives a sketch through random updates,
// diffs consecutive versions, and verifies that applying each diff to a
// copy of the previous version reproduces the next version bit for bit —
// the invariant cluster delta frames rely on.
func TestDiffApplyReconstructsExactly(t *testing.T) {
	for _, depth := range []int{1, 4} {
		rng := rand.New(rand.NewSource(7))
		cur := NewCountSketch(depth, 256, 42)
		replica := NewCountSketch(depth, 256, 42)
		prev := cur.Clone()
		for round := 0; round < 20; round++ {
			for i := 0; i < rng.Intn(300); i++ {
				cur.Update(rng.Uint32()%4096, rng.NormFloat64())
			}
			changes, err := Diff(prev, cur)
			if err != nil {
				t.Fatalf("depth=%d: Diff: %v", depth, err)
			}
			if err := replica.ApplyDiff(changes); err != nil {
				t.Fatalf("depth=%d: ApplyDiff: %v", depth, err)
			}
			for j := 0; j < depth; j++ {
				got, want := replica.Row(j), cur.Row(j)
				for b := range want {
					if got[b] != want[b] {
						t.Fatalf("depth=%d round=%d: replica row %d bucket %d = %v, want %v",
							depth, round, j, b, got[b], want[b])
					}
				}
			}
			prev = cur.Clone()
		}
	}
}

// TestDiffAscendingAndMinimal checks ordering and that untouched buckets are
// never reported.
func TestDiffAscendingAndMinimal(t *testing.T) {
	base := NewCountSketch(2, 64, 1)
	cur := base.Clone()
	cur.Update(5, 1.5)
	cur.Update(99, -2.0)
	changes, err := Diff(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	// Each update touches one bucket per row: at most 4 changes (collisions
	// can make it fewer).
	if len(changes) == 0 || len(changes) > 4 {
		t.Fatalf("got %d changes, want 1..4", len(changes))
	}
	for i := 1; i < len(changes); i++ {
		if changes[i].Index <= changes[i-1].Index {
			t.Fatalf("indices not strictly ascending: %v", changes)
		}
	}
	// A value that returns to its base state must not appear.
	cur2 := base.Clone()
	cur2.Update(5, 1.5)
	cur2.Update(5, -1.5)
	changes, err = Diff(base, cur2)
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 0 {
		t.Fatalf("round-tripped bucket reported as changed: %v", changes)
	}
}

func TestDiffIncompatible(t *testing.T) {
	a := NewCountSketch(1, 64, 1)
	if _, err := Diff(a, NewCountSketch(1, 128, 1)); err == nil {
		t.Fatal("shape mismatch not rejected")
	}
	if _, err := Diff(a, NewCountSketch(1, 64, 2)); err == nil {
		t.Fatal("seed mismatch not rejected")
	}
}

func TestApplyDiffRejectsCorruptFrames(t *testing.T) {
	cs := NewCountSketch(2, 64, 1)
	cs.Update(3, 1.0)
	snapshot := cs.Clone()

	if err := cs.ApplyDiff([]BucketChange{{Index: 128, Value: 1}}); err == nil {
		t.Fatal("out-of-range index not rejected")
	}
	if err := cs.ApplyDiff([]BucketChange{{Index: 0, Value: math.NaN()}}); err == nil {
		t.Fatal("NaN value not rejected")
	}
	if err := cs.ApplyDiff([]BucketChange{{Index: 0, Value: math.Inf(1)}}); err == nil {
		t.Fatal("Inf value not rejected")
	}
	// A rejected frame must leave the sketch untouched, even when valid
	// changes precede the corrupt one.
	if err := cs.ApplyDiff([]BucketChange{{Index: 1, Value: 9}, {Index: 999, Value: 1}}); err == nil {
		t.Fatal("mixed frame not rejected")
	}
	for j := 0; j < 2; j++ {
		got, want := cs.Row(j), snapshot.Row(j)
		for b := range want {
			if got[b] != want[b] {
				t.Fatalf("rejected frame mutated row %d bucket %d", j, b)
			}
		}
	}
}

// TestAddScaledMatchesMergeAtUnitScale pins the c == 1 fast path to Merge's
// exact arithmetic: weighted mixing with equal weights must stay
// bit-identical to the historical unweighted average.
func TestAddScaledMatchesMergeAtUnitScale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewCountSketch(3, 128, 5)
	b := NewCountSketch(3, 128, 5)
	for i := 0; i < 500; i++ {
		a.Update(rng.Uint32()%1024, rng.NormFloat64())
		b.Update(rng.Uint32()%1024, rng.NormFloat64())
	}
	viaMerge := a.Clone()
	if err := viaMerge.Merge(b); err != nil {
		t.Fatal(err)
	}
	viaAdd := a.Clone()
	if err := viaAdd.AddScaled(b, 1); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		g, w := viaAdd.Row(j), viaMerge.Row(j)
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("AddScaled(·, 1) diverges from Merge at row %d bucket %d", j, i)
			}
		}
	}
	// And the scaled path is plain arithmetic.
	scaled := NewCountSketch(3, 128, 5)
	if err := scaled.AddScaled(b, 0.25); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		g, src := scaled.Row(j), b.Row(j)
		for i := range src {
			if g[i] != 0.25*src[i] {
				t.Fatalf("AddScaled(·, 0.25) wrong at row %d bucket %d", j, i)
			}
		}
	}
}

// diffPair is two versions of a 1×width sketch that differ in about a
// third of the buckets, in no pattern, with signed zeros among the values.
func diffPair(width int) (base, cur *CountSketch) {
	rng := rand.New(rand.NewSource(int64(width)))
	base, cur = NewCountSketch(1, width, 3), NewCountSketch(1, width, 3)
	value := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return rng.NormFloat64()
	}
	var set, change []BucketChange
	for i := range width {
		set = append(set, BucketChange{Index: uint32(i), Value: value()})
		if rng.Intn(3) == 0 {
			change = append(change, BucketChange{Index: uint32(i), Value: value()})
		}
	}
	if err := base.ApplyDiff(set); err != nil {
		panic(err)
	}
	if err := cur.ApplyDiff(set); err != nil {
		panic(err)
	}
	if err := cur.ApplyDiff(change); err != nil {
		panic(err)
	}
	return base, cur
}

// TestDiffBitsRebuildsBitForBit: AppendDiffBits reports what Diff reports,
// with the same values, plus the zero buckets whose sign changed, so
// applying it rebuilds the sketch bit for bit; Diff's rebuild differs only
// in the sign of zero buckets. It appends to what dst holds.
func TestDiffBitsRebuildsBitForBit(t *testing.T) {
	for _, width := range []int{1, 7, 64, 4096} {
		base, cur := diffPair(width)
		exact, err := AppendDiffBits(nil, base, cur)
		if err != nil {
			t.Fatal(err)
		}
		byValue, err := Diff(base, cur)
		if err != nil {
			t.Fatal(err)
		}
		bits, values := base.Clone(), base.Clone()
		if err := bits.ApplyDiff(exact); err != nil {
			t.Fatal(err)
		}
		if err := values.ApplyDiff(byValue); err != nil {
			t.Fatal(err)
		}
		flips := 0
		for i := range uint32(width) {
			if math.Float64bits(bits.At(i)) != math.Float64bits(cur.At(i)) {
				t.Fatalf("width %d: bucket %d rebuilt from AppendDiffBits is %v, want %v", width, i, bits.At(i), cur.At(i))
			}
			if math.Float64bits(values.At(i)) != math.Float64bits(cur.At(i)) {
				if values.At(i) != 0 || cur.At(i) != 0 {
					t.Fatalf("width %d: bucket %d rebuilt from Diff is %v, want %v", width, i, values.At(i), cur.At(i))
				}
				flips++
			}
		}
		if len(exact) != len(byValue)+flips {
			t.Fatalf("width %d: AppendDiffBits reports %d buckets, Diff %d and %d zeros flipped sign", width, len(exact), len(byValue), flips)
		}
		for i := 1; i < len(exact); i++ {
			if exact[i].Index <= exact[i-1].Index {
				t.Fatalf("width %d: AppendDiffBits indices not strictly ascending at %d", width, i)
			}
		}
		if width == 4096 && flips == 0 {
			t.Fatal("no zero bucket changed sign: the pair does not test it")
		}
		held := []BucketChange{{Index: 9, Value: 1}}
		if got, err := AppendDiffBits(held, base, cur); err != nil || !slices.Equal(got[:1], held) || !slices.Equal(got[1:], exact) {
			t.Fatalf("width %d: AppendDiffBits onto a held change did not append to it (%v)", width, err)
		}
	}
	if _, err := AppendDiffBits(nil, NewCountSketch(1, 64, 1), NewCountSketch(1, 64, 2)); err == nil {
		t.Fatal("AppendDiffBits accepted sketches of different seeds")
	}
}

// BenchmarkDiff diffs two versions of a 4096×1 sketch a third of whose
// buckets changed: by value, as the frame definition reads, and by bits
// into a reused list, as a node keeps an older version.
func BenchmarkDiff(b *testing.B) {
	base, cur := diffPair(4096)
	var scratch []BucketChange
	for _, d := range []struct {
		name string
		diff func(base, cur *CountSketch) ([]BucketChange, error)
	}{{"value", Diff}, {"bits", func(base, cur *CountSketch) ([]BucketChange, error) {
		var err error
		scratch, err = AppendDiffBits(scratch[:0], base, cur)
		return scratch, err
	}}} {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := d.diff(base, cur); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
