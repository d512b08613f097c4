package core

import (
	"bytes"
	"io"
	"testing"

	"wmsketch/internal/datagen"
)

// awmWithHeap trains a 4096×1 AWM-Sketch (wmserve's default geometry)
// until its active set holds heap entries.
func awmWithHeap(t *testing.T, heap int) *AWMSketch {
	t.Helper()
	a := NewAWMSketch(Config{Width: 4096, Depth: 1, HeapSize: heap, Lambda: 1e-6, Seed: 42})
	gen := datagen.RCV1Like(3)
	for a.active.Len() < heap {
		ex := gen.Next()
		a.Update(ex.X, ex.Y)
	}
	return a
}

// TestCheckpointAllocationsIndependentOfHeap: writing and restoring a
// checkpoint allocates per section (header, heap, sketch rows), never per
// heap entry. A 2048-entry AWM must cost about what a 64-entry one costs.
// Encoding every header field and heap entry reflectively, restore once
// took 4134 allocations against 166 and WriteTo 4114 against 146.
func TestCheckpointAllocationsIndependentOfHeap(t *testing.T) {
	big, small := awmWithHeap(t, 2048), awmWithHeap(t, 64)
	writeAllocs := func(a *AWMSketch) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := a.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	loadAllocs := func(a *AWMSketch) float64 {
		var buf bytes.Buffer
		if _, err := a.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := LoadAWMSketch(bytes.NewReader(buf.Bytes()), nil, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range []struct {
		name   string
		allocs func(*AWMSketch) float64
	}{{"write", writeAllocs}, {"restore", loadAllocs}} {
		b, s := c.allocs(big), c.allocs(small)
		t.Logf("%s: %.0f allocations with 2048 heap entries, %.0f with 64", c.name, b, s)
		if b > s+8 {
			t.Errorf("%s: %.0f allocations with 2048 heap entries against %.0f with 64; the codec allocates per entry",
				c.name, b, s)
		}
	}
}
