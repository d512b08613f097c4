package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
	"wmsketch/internal/trace"
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

// applyTransport delivers each pushed stream to a node the way the
// server's push handler does: decode it, then apply it.
type applyTransport struct{ to *Node }

func (applyTransport) Pull(context.Context, string, PullRequest) (io.ReadCloser, error) {
	return nil, errors.New("applyTransport: pushes only")
}

func (t applyTransport) Push(ctx context.Context, _ string, body []byte) error {
	frames, sc, err := ReadFramesTraced(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if res := t.to.ApplyFramesCtx(trace.ContextWithRemote(ctx, sc), frames); res.Applied != 1 {
		return fmt.Errorf("push applied %+v, want one frame", res)
	}
	return nil
}

// TestVersionAllocations: one version's trip between two nodes at 4096×1,
// each holding a full 2048-entry AWM heap — publish, delta build, encode,
// decode, apply — allocates what the new version keeps, plus a stated
// slack. What it keeps: on the publisher, a sketch clone and one heavy
// list; on the receiver, a clone and a heavy list; on each, the replaced
// version's reverse delta, packed; and the lists of the frame kept for
// reuse. The slack is the decoded copy of the frame's lists, the encoded
// stream at its payloadBound size, and 24 KiB for small objects and for
// rounding allocations up to the allocator's size classes. Copying the
// heap to read it, copying the heavy list twice, keeping a reverse delta
// unpacked, or growing the change list or a codec buffer by doubling each
// takes more than the slack leaves.
func TestVersionAllocations(t *testing.T) {
	cfg := core.Config{Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 7}
	gen := datagen.RCV1Like(8)
	learner := func(examples int) *core.AWMSketch {
		l := core.NewAWMSketch(cfg)
		for _, ex := range gen.Take(examples) {
			l.Update(ex.X, ex.Y)
		}
		return l
	}
	recv, err := NewNode(Config{Self: "node-a", Mix: mixOpt(cfg), Local: learner(20000), Interval: -1})
	if err != nil {
		t.Fatal(err)
	}
	l := learner(20000)
	send, err := NewNode(Config{Self: "node-b", Mix: mixOpt(cfg), Local: l, Interval: -1, Transport: applyTransport{recv}})
	if err != nil {
		t.Fatal(err)
	}
	peer := &peerState{url: "node-a"}
	trip := func() []Frame {
		if _, published, err := send.PublishLocal(); err != nil || !published {
			t.Fatalf("publish: %v %v", published, err)
		}
		frames := send.BuildFrames(recv.Digest(), false)
		if err := send.push(context.Background(), peer, frames); err != nil {
			t.Fatal(err)
		}
		return frames
	}
	if fs := trip(); len(fs) != 1 || fs[0].Kind != kindFull || len(fs[0].Heavy) != cfg.HeapSize {
		t.Fatalf("first trip: %d frames, want one full frame with a full heap", len(fs))
	}
	// A warm-up version fills the scratch pools, and no GC runs from then
	// on to empty them; each of the next three versions is measured. A
	// collection before the warm-up may already have emptied the pools the
	// full trip filled, so the warm-up trains on twice the examples: its
	// delta is larger than every measured one, and the buffers it sizes
	// serve them all.
	chunks := [][]stream.Example{gen.Take(1024), gen.Take(512), gen.Take(512), gen.Take(512)}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var report string
	excess := math.MinInt
	for i, chunk := range chunks {
		for _, ex := range chunk {
			l.Update(ex.X, ex.Y)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fs := trip()
		runtime.ReadMemStats(&after)
		if len(fs) != 1 || fs[0].Kind != kindDelta {
			t.Fatalf("trip built %d frames, want one delta frame", len(fs))
		}
		if i == 0 {
			continue
		}
		f := &fs[0]
		const entry = 16 // a BucketChange and a stream.Weighted
		lists := entry*len(f.Changes) + 4*len(f.HeavyRemoved) + entry*len(f.HeavyUpserts)
		// A reverse delta packs the changed buckets with their old values,
		// at the frame's gaps; the old entries the upserts overwrote and
		// the removals dropped; and the keys the upserts added. The heap is
		// full in both versions, so the upserts add as many keys as the
		// removals drop: the old entries and added keys name the keys of
		// the upserts and removals, and pack to the size of the frame's
		// own lists.
		reverse := deltaListsSize(f.Changes, f.HeavyRemoved, f.HeavyUpserts)
		keeps := 2*(8*4096+entry*cfg.HeapSize) + lists + 2*reverse
		slack := lists + payloadBound(f) + 24<<10
		allocated := int(after.TotalAlloc - before.TotalAlloc)
		if allocated-keeps-slack > excess {
			excess = allocated - keeps - slack
			report = fmt.Sprintf("a version's trip (%d changes, %d removals, %d upserts) allocates %d bytes in %d allocations; it keeps %d, slack %d",
				len(f.Changes), len(f.HeavyRemoved), len(f.HeavyUpserts), allocated, after.Mallocs-before.Mallocs, keeps, slack)
		}
	}
	t.Log(report)
	if raceEnabled() {
		t.Skip("the race detector drops pooled scratch at random, so allocations are not gated under it")
	}
	if excess > 0 {
		t.Errorf("%s: %d bytes over", report, excess)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
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

// TestNodeReadsStaleFramesAsStubs: delta frames whose version a node
// already holds read through Node.ReadFramesTraced as stale stubs, decoded
// no further than their origin and version. Reading a stream of them
// allocates the same, in count and bytes, whatever their lists hold (the
// package-level reader, which decodes every frame, allocates their lists).
// Applied, the stubs count as stale in Status().StaleDropped, on the node
// and on one that holds nothing; and the encoder refuses them.
func TestNodeReadsStaleFramesAsStubs(t *testing.T) {
	cfg := core.Config{Width: 4096, Depth: 1, HeapSize: 2048, Seed: 7}
	newNode := func(self string) *Node {
		n, err := NewNode(Config{Self: self, Mix: mixOpt(cfg), Local: core.NewAWMSketch(cfg), Interval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := newNode("holder")
	full, _ := codecFrames(2048)
	full.Version = 2000 // past every delta below
	if res := n.ApplyFrames([]Frame{full}); res.Applied != 1 {
		t.Fatalf("full frame: %+v", res)
	}
	stream := func(heavy int) []byte {
		_, delta := codecFrames(heavy)
		frames := make([]Frame, 4)
		for i := range frames {
			frames[i] = delta
			frames[i].Version = delta.Version + int64(i)
		}
		return encodeFrames(t, frames)
	}
	big, small := stream(2048), stream(64)
	// AllocsPerRun reads once before it counts, which sizes the pooled
	// read buffer; the bytes are counted over the same runs after it.
	read := func(r func(io.Reader) ([]Frame, error), b []byte) (allocs, allocated float64) {
		run := func() {
			if _, err := r(bytes.NewReader(b)); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(20, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 20 {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 20
	}
	node := func(r io.Reader) ([]Frame, error) {
		fs, _, err := n.ReadFramesTraced(r)
		return fs, err
	}
	bigAllocs, bigBytes := read(node, big)
	smallAllocs, smallBytes := read(node, small)
	_, wholeBytes := read(ReadFrames, big)
	t.Logf("4 stale deltas: %.0f allocations and %.0f bytes with 2048-entry heavy lists, %.0f and %.0f with 64; %.0f bytes decoded whole",
		bigAllocs, bigBytes, smallAllocs, smallBytes, wholeBytes)
	// The race detector drops pooled buffers at random, so the reads
	// allocate what the pools would have kept: allocations are not gated
	// under it.
	if !raceEnabled() && (bigAllocs > smallAllocs || bigBytes > smallBytes+512) {
		t.Errorf("reading stale deltas allocates %.0f times and %.0f bytes with long lists, %.0f and %.0f with short ones",
			bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
	_, delta := codecFrames(2048)
	if lists := 4 * (16*len(delta.Changes) + 4*len(delta.HeavyRemoved) + 16*len(delta.HeavyUpserts)); !raceEnabled() && wholeBytes < bigBytes+float64(lists) {
		t.Errorf("decoding the stale deltas whole allocates %.0f bytes, the stubs %.0f: less than their %d bytes of lists more", wholeBytes, bigBytes, lists)
	}

	frames, _, err := n.ReadFramesTraced(bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if !f.stale || f.Kind != kindDelta || f.Origin != "node-a" || f.Changes != nil || f.HeavyUpserts != nil || f.WireBytes == 0 {
			t.Fatalf("stub %+v, want a stale delta stub of node-a with its wire size and no lists", f)
		}
	}
	for _, m := range []*Node{n, newNode("empty")} {
		before := m.Status().StaleDropped
		if res := m.ApplyFrames(frames); res.Applied != 0 || res.Stale != len(frames) || res.Changed {
			t.Fatalf("%s applied the stubs: %+v, want all %d stale", m.Self(), res, len(frames))
		}
		if got := m.Status().StaleDropped - before; got != int64(len(frames)) {
			t.Fatalf("%s: StaleDropped moved by %d, want %d", m.Self(), got, len(frames))
		}
	}
	if _, err := WriteFrames(io.Discard, frames); err == nil {
		t.Fatal("WriteFrames encoded a stale stub")
	}
}
