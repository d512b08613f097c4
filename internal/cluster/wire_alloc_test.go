package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
)

// codecFrames builds a full frame on wmserve's default geometry (4096×1)
// carrying heavy entries, and a delta frame that changes a tenth of the
// buckets and heavy entries of that state.
func codecFrames(heavy int) (full, delta Frame) {
	rng := rand.New(rand.NewSource(int64(heavy)))
	cs := sketch.NewCountSketch(1, 4096, 7)
	var set, changes []sketch.BucketChange
	for i := range cs.Size() {
		set = append(set, sketch.BucketChange{Index: uint32(i), Value: rng.NormFloat64()})
		if rng.Intn(10) == 0 {
			changes = append(changes, sketch.BucketChange{Index: uint32(i), Value: rng.NormFloat64()})
		}
	}
	if err := cs.ApplyDiff(set); err != nil {
		panic(err)
	}
	ws := make([]stream.Weighted, heavy)
	for i, k := range rng.Perm(64 * heavy)[:heavy] {
		ws[i] = stream.Weighted{Index: uint32(k), Weight: rng.NormFloat64()}
	}
	stream.SortWeighted(ws)
	full = Frame{Kind: kindFull, Origin: "node-a", Version: 1000, Scale: 0.9, CS: cs, Heavy: ws}
	delta = Frame{Kind: kindDelta, Origin: "node-a", Version: 1100, Base: 1000, Scale: 0.8, Changes: changes}
	for i, w := range ws {
		switch {
		case i%10 == 0:
			delta.HeavyRemoved = append(delta.HeavyRemoved, w.Index)
		case i%10 == 1:
			delta.HeavyUpserts = append(delta.HeavyUpserts, stream.Weighted{Index: w.Index, Weight: w.Weight / 2})
		}
	}
	return full, delta
}

// codecAllocs is the allocations of encoding f into a stream and decoding
// it back.
func codecAllocs(t *testing.T, f Frame) float64 {
	t.Helper()
	var buf bytes.Buffer
	return testing.AllocsPerRun(10, func() {
		buf.Reset()
		if _, err := WriteFrames(&buf, []Frame{f}); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFrames(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCodecAllocationsIndependentOfEntries: encoding and decoding a frame
// allocates per stream and per frame (buffers, the decoded slices, the
// sketch), never per entry. A 2048-entry full frame and its delta must
// cost about what frames with 32 times fewer heavy entries cost; the slack
// covers the encoder's payload buffer, which grows by doubling (2 more
// allocations here, 4 under the race detector). Allocating per value, the
// codec once took about 6200 against 235 for the full frames and 2100
// against 1300 for the deltas.
func TestCodecAllocationsIndependentOfEntries(t *testing.T) {
	bigFull, bigDelta := codecFrames(2048)
	smallFull, smallDelta := codecFrames(64)
	for _, c := range []struct {
		name       string
		big, small Frame
	}{{"full", bigFull, smallFull}, {"delta", bigDelta, smallDelta}} {
		big, small := codecAllocs(t, c.big), codecAllocs(t, c.small)
		t.Logf("%s frame: %.0f allocations with %d heavy entries, %.0f with %d",
			c.name, big, len(c.big.Heavy)+len(c.big.HeavyUpserts), small, len(c.small.Heavy)+len(c.small.HeavyUpserts))
		if big > small+8 {
			t.Errorf("%s frame: %.0f allocations per stream (%.0f with fewer entries); the codec allocates per entry",
				c.name, big, small)
		}
	}
}

// BenchmarkWriteFrames and BenchmarkReadFrames encode and decode one
// 4096×1 full frame and one delta frame by heavy-list size.
func BenchmarkWriteFrames(b *testing.B) {
	for _, n := range []int{64, 2048, 8192} {
		full, delta := codecFrames(n)
		for _, f := range []Frame{full, delta} {
			b.Run(fmt.Sprintf("%s/n=%d", kindLabel(f.Kind), n), func(b *testing.B) {
				var buf bytes.Buffer
				b.ReportAllocs()
				for b.Loop() {
					buf.Reset()
					if _, err := WriteFrames(&buf, []Frame{f}); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(buf.Len()))
			})
		}
	}
}

func BenchmarkReadFrames(b *testing.B) {
	for _, n := range []int{64, 2048, 8192} {
		full, delta := codecFrames(n)
		for _, f := range []Frame{full, delta} {
			var buf bytes.Buffer
			if _, err := WriteFrames(&buf, []Frame{f}); err != nil {
				b.Fatal(err)
			}
			stream := buf.Bytes()
			b.Run(fmt.Sprintf("%s/n=%d", kindLabel(f.Kind), n), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(stream)))
				for b.Loop() {
					if _, err := ReadFrames(bytes.NewReader(stream)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
