package cluster

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
)

// countingSnapshotter counts the snapshots taken of the learner it wraps.
type countingSnapshotter struct {
	*core.AWMSketch
	snapshots int
}

func (c *countingSnapshotter) ModelSnapshot() (core.Snapshot, error) {
	c.snapshots++
	return c.AWMSketch.ModelSnapshot()
}

// TestIdlePublishTakesNoSnapshot: a publish with no training since the
// last one must not snapshot the learner — the snapshot clones its sketch
// and would be discarded.
func TestIdlePublishTakesNoSnapshot(t *testing.T) {
	cfg := clusterConfig()
	l := &countingSnapshotter{AWMSketch: core.NewAWMSketch(cfg)}
	n, err := NewNode(Config{Self: "node-a", Mix: mixOpt(cfg), Local: l, Interval: -1})
	if err != nil {
		t.Fatal(err)
	}
	gen := datagen.RCV1Like(4)
	for _, ex := range gen.Take(200) {
		l.Update(ex.X, ex.Y)
	}
	for i := 0; i < 3; i++ {
		v, published, err := n.PublishLocal()
		if err != nil {
			t.Fatal(err)
		}
		if v != 200 || published != (i == 0) {
			t.Fatalf("publish %d: version %d published %v, want 200 %v", i, v, published, i == 0)
		}
	}
	if l.snapshots != 1 {
		t.Fatalf("three publishes of one version took %d snapshots, want 1", l.snapshots)
	}
	for _, ex := range gen.Take(50) {
		l.Update(ex.X, ex.Y)
	}
	if v, published, err := n.PublishLocal(); err != nil || v != 250 || !published {
		t.Fatalf("publish after training: version %d published %v err %v, want 250 true", v, published, err)
	}
	if l.snapshots != 2 {
		t.Fatalf("training and publishing again took %d snapshots in all, want 2", l.snapshots)
	}
}

// blockingSnapshotter counts the snapshots taken of the learner it wraps
// and holds each one until release is closed, announcing it on entered.
type blockingSnapshotter struct {
	*core.AWMSketch
	snapshots atomic.Int32
	entered   chan struct{}
	release   chan struct{}
}

func (b *blockingSnapshotter) ModelSnapshot() (core.Snapshot, error) {
	b.snapshots.Add(1)
	b.entered <- struct{}{}
	<-b.release
	return b.AWMSketch.ModelSnapshot()
}

// TestConcurrentPublishTakesOneSnapshot: two publishes of a learner that
// has moved, the second arriving while the first snapshots it, take one
// snapshot between them. The second waits for the first and returns the
// version it published; without that, each would snapshot and one copy
// would be thrown away.
func TestConcurrentPublishTakesOneSnapshot(t *testing.T) {
	cfg := clusterConfig()
	l := &blockingSnapshotter{AWMSketch: core.NewAWMSketch(cfg), entered: make(chan struct{}, 2), release: make(chan struct{})}
	n, err := NewNode(Config{Self: "node-a", Mix: mixOpt(cfg), Local: l, Interval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range datagen.RCV1Like(7).Take(300) {
		l.Update(ex.X, ex.Y)
	}
	type result struct {
		version   int64
		published bool
		err       error
	}
	results := make(chan result, 2)
	publish := func() {
		v, published, err := n.PublishLocal()
		results <- result{v, published, err}
	}
	go publish()
	<-l.entered // the first publish is inside ModelSnapshot
	go publish()
	select {
	case <-l.entered:
		t.Error("the second publish snapshotted the learner while the first was still snapshotting it")
	case <-time.After(200 * time.Millisecond):
	}
	close(l.release)
	var published int
	for range 2 {
		r := <-results
		if r.err != nil || r.version != 300 {
			t.Fatalf("publish: version %d, err %v; want 300", r.version, r.err)
		}
		if r.published {
			published++
		}
	}
	if got := l.snapshots.Load(); got != 1 || published != 1 {
		t.Fatalf("two concurrent publishes took %d snapshots and published %d versions, want 1 and 1", got, published)
	}
}

// encodeFrames is the stream WriteFrames writes for frames.
func encodeFrames(t *testing.T, frames []Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteFrames(&buf, frames); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// builtFrame returns the frame o currently keeps for reuse (nil if none).
func builtFrame(n *Node, origin string) *Frame {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.origins[origin].built
}

// TestFrameBuiltOncePerBase: two peers that acked the same base get one
// frame, built once, which encodes to the bytes a fresh build would.
func TestFrameBuiltOncePerBase(t *testing.T) {
	a, b, c := newMember(t, "node-a"), newMember(t, "node-b"), newMember(t, "node-c")
	gen := datagen.RCV1Like(5)
	train(b, gen.Take(2000))
	exchange(t, a, b)
	exchange(t, c, b)
	train(b, gen.Take(20))
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}

	fa := b.node.BuildFrames(a.node.Digest(), false)
	fc := b.node.BuildFrames(c.node.Digest(), false)
	if len(fa) != 1 || len(fc) != 1 || fa[0].Kind != kindDelta || fc[0].Kind != kindDelta {
		t.Fatalf("want one delta frame per peer, got %d and %d frames", len(fa), len(fc))
	}
	if len(fa[0].Changes) == 0 || &fa[0].Changes[0] != &fc[0].Changes[0] {
		t.Fatal("peers at the same base got separately built frames")
	}
	b.node.mu.Lock()
	fresh := buildFrame(b.node.origins["node-b"], 2000)
	b.node.mu.Unlock()
	if !bytes.Equal(encodeFrames(t, fc), encodeFrames(t, []Frame{fresh})) {
		t.Fatal("the reused frame encodes differently from a fresh build")
	}
	// Each frame served still counts as built.
	if st := b.node.Status(); st.FullsOut != 2 || st.DeltasOut != 2 {
		t.Fatalf("built counters: fulls=%d deltas=%d, want 2/2", st.FullsOut, st.DeltasOut)
	}
}

// TestBuiltFrameDroppedOnNewVersionAndTombstone: a new version or an origin
// GC tombstone drops the kept frame, so no later frame names the old
// version.
func TestBuiltFrameDroppedOnNewVersionAndTombstone(t *testing.T) {
	a, b := newMember(t, "node-a"), newMember(t, "node-b")
	gen := datagen.RCV1Like(6)
	train(b, gen.Take(1000))
	exchange(t, a, b)
	train(b, gen.Take(50))
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	if fs := b.node.BuildFrames(a.node.Digest(), false); len(fs) != 1 || fs[0].Version != 1050 {
		t.Fatalf("built %d frames, want one at version 1050", len(fs))
	}
	if builtFrame(b.node, "node-b") == nil {
		t.Fatal("no frame kept after a build")
	}
	train(b, gen.Take(50))
	if _, published, err := b.node.PublishLocal(); err != nil || !published {
		t.Fatalf("publish: %v %v", published, err)
	}
	if builtFrame(b.node, "node-b") != nil {
		t.Fatal("a new version kept the old version's frame")
	}
	if fs := b.node.BuildFrames(a.node.Digest(), false); len(fs) != 1 || fs[0].Version != 1100 {
		t.Fatalf("after a new version built %d frames, want one at version 1100", len(fs))
	}

	// A relayed origin that ages out of the GC window.
	clock := newFakeClock()
	hub := clockedNode(t, clock, newStubTransport(), nil, func(c *Config) {
		c.OriginGCAfter = time.Minute
		c.OriginGCDecay = time.Minute
	})
	if res := hub.ApplyFrames(b.node.BuildFrames(map[string]int64{}, false)); res.Applied != 1 {
		t.Fatalf("apply: %+v", res)
	}
	if fs := hub.BuildFrames(map[string]int64{}, false); len(fs) != 1 || fs[0].Origin != "node-b" {
		t.Fatalf("hub offers %d frames, want node-b's", len(fs))
	}
	if builtFrame(hub, "node-b") == nil {
		t.Fatal("no frame kept for the relayed origin")
	}
	clock.Advance(2*time.Minute + time.Second)
	hub.GossipOnce() // sweeps the origin to a tombstone
	if builtFrame(hub, "node-b") != nil {
		t.Fatal("the tombstone kept the dead version's frame")
	}
	for _, f := range hub.BuildFrames(map[string]int64{}, false) {
		if f.Origin == "node-b" {
			t.Fatalf("tombstoned origin still built at version %d", f.Version)
		}
	}
}

// TestOwnOriginEchoIsStale: a peer relaying this node's own origin at a
// version the node already holds (its digest went stale during the round)
// sends a stale frame, not an invalid one. A newer own-origin frame is
// still rejected (TestRejectsOwnOriginAndBadGeometry).
func TestOwnOriginEchoIsStale(t *testing.T) {
	a, b := newMember(t, "node-a"), newMember(t, "node-b")
	train(a, datagen.RCV1Like(12).Take(300))
	exchange(t, b, a)
	echo := b.node.BuildFrames(map[string]int64{}, false)
	if len(echo) != 1 || echo[0].Origin != "node-a" || echo[0].Version != 300 {
		t.Fatalf("b relays %d frames, want node-a at 300", len(echo))
	}
	res := a.node.ApplyFrames(echo)
	if res.Stale != 1 || res.Rejected != 0 || res.Applied != 0 {
		t.Fatalf("echo of our own origin: %+v, want Stale 1, Rejected 0", res)
	}
	if st := a.node.Status(); st.StaleDropped != 1 || st.RejectedFrames != 0 {
		t.Fatalf("counters: stale=%d rejected=%d, want 1/0", st.StaleDropped, st.RejectedFrames)
	}
}
