package cluster

import (
	"bytes"
	"fmt"
	"log/slog"
	"slices"
	"testing"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// testLogWriter routes slog text output through t.Logf.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// testLogger builds a debug-level slog.Logger narrating into the test log.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t: t},
		&slog.HandlerOptions{Level: slog.LevelDebug}))
}

func clusterConfig() core.Config {
	return core.Config{Width: 512, Depth: 1, HeapSize: 64, Lambda: 1e-6, Seed: 7}
}

func mixOpt(cfg core.Config) core.MixOptions {
	return core.MixOptions{Depth: cfg.Depth, Width: cfg.Width, Seed: cfg.Seed, HeapSize: cfg.HeapSize}
}

type testMember struct {
	node    *Node
	learner *core.AWMSketch
}

func newMember(t *testing.T, id string) *testMember {
	t.Helper()
	cfg := clusterConfig()
	l := core.NewAWMSketch(cfg)
	n, err := NewNode(Config{
		Self:     id,
		Mix:      mixOpt(cfg),
		Local:    l,
		Interval: -1, // manual rounds
		Logger:   testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &testMember{node: n, learner: l}
}

// exchange reconciles b's state into a (one directed pull, a ← b),
// round-tripping the frames through the wire encoding like real gossip.
func exchange(t *testing.T, a, b *testMember) ApplyResult {
	t.Helper()
	if _, _, err := a.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	frames := b.node.BuildFrames(a.node.Digest(), true)
	var buf bytes.Buffer
	if _, err := WriteFrames(&buf, frames); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadFrames(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res := a.node.ApplyFrames(decoded)
	if len(res.NeedFull) > 0 {
		// Delta base missing: force fulls, as the gossip client does.
		digest := a.node.Digest()
		for _, origin := range res.NeedFull {
			digest[origin] = 0
		}
		full := b.node.BuildFrames(digest, false)
		var buf2 bytes.Buffer
		if _, err := WriteFrames(&buf2, full); err != nil {
			t.Fatal(err)
		}
		dec2, err := ReadFrames(&buf2)
		if err != nil {
			t.Fatal(err)
		}
		r2 := a.node.ApplyFrames(dec2)
		res.Applied += r2.Applied
		res.Rejected += r2.Rejected
	}
	return res
}

func train(m *testMember, examples []stream.Example) {
	for _, ex := range examples {
		m.learner.Update(ex.X, ex.Y)
	}
}

// TestTwoNodeConvergenceViaWire trains two nodes on disjoint halves,
// reconciles both directions over the encoded wire, and checks both views
// agree bit-wise with each other and with directly mixing the two local
// snapshots.
func TestTwoNodeConvergenceViaWire(t *testing.T) {
	cfg := clusterConfig()
	a, b := newMember(t, "node-a"), newMember(t, "node-b")
	data := datagen.RCV1Like(31).Take(3000)
	train(a, data[:1500])
	train(b, data[1500:])

	exchange(t, a, b)
	exchange(t, b, a)

	snA, err := a.learner.ModelSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	snB, err := b.learner.ModelSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	snA.Origin, snB.Origin = "node-a", "node-b"
	canonical := func(sn core.Snapshot) core.Snapshot {
		h := append([]stream.Weighted(nil), sn.Heavy...)
		stream.SortWeighted(h)
		sn.Heavy = h
		return sn
	}
	want, err := core.MixSnapshots([]core.Snapshot{canonical(snA), canonical(snB)}, mixOpt(cfg))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 2048; i++ {
		va, vb, vw := a.node.View().Estimate(i), b.node.View().Estimate(i), want.Estimate(i)
		if va != vw || vb != vw {
			t.Fatalf("Estimate(%d): a=%v b=%v direct-mix=%v", i, va, vb, vw)
		}
	}
}

// TestShardedPeerServesTheNodesView: a sharded node's cluster view, and
// that of a peer whose one origin is the node, serve the sharded learner's
// own view bit for bit, at depths 1 and 3 with 2 and 4 workers, after a
// first trip over the wire and after a second: every estimate, every
// held-out prediction and the top-K. The learner's view mixes the shards'
// tails, so this holds only because the published heavy list carries
// every mixed heavy weight of that view, more than HeapSize.
func TestShardedPeerServesTheNodesView(t *testing.T) {
	for _, depth := range []int{1, 3} {
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("depth=%d/workers=%d", depth, workers), func(t *testing.T) {
				cfg := core.Config{Width: 4096, Depth: depth, HeapSize: 256, Lambda: 1e-5, Seed: 7}
				gen := datagen.RCV1Like(9)
				holdout := gen.Take(2000)
				sh := core.NewSharded(cfg, core.ShardedOptions{Workers: workers, SyncEvery: -1})
				defer sh.Close()
				node, err := NewNode(Config{Self: "node-a", Mix: mixOpt(cfg), Local: sh, Interval: -1})
				if err != nil {
					t.Fatal(err)
				}
				peer, err := NewNode(Config{Self: "node-b", Mix: mixOpt(cfg), Local: core.NewAWMSketch(cfg), Interval: -1})
				if err != nil {
					t.Fatal(err)
				}
				for trip := 1; trip <= 2; trip++ {
					sh.UpdateBatch(gen.Take(3000))
					if _, published, err := node.PublishLocal(); err != nil || !published {
						t.Fatalf("trip %d: publish: %v %v", trip, published, err)
					}
					frames := node.BuildFrames(peer.Digest(), false)
					if trip == 1 && (len(frames) != 1 || len(frames[0].Heavy) <= cfg.HeapSize) {
						t.Fatalf("first trip: want one full frame listing more than %d heavy keys, got %d frames", cfg.HeapSize, len(frames))
					}
					var buf bytes.Buffer
					if _, err := WriteFrames(&buf, frames); err != nil {
						t.Fatal(err)
					}
					decoded, _, err := peer.ReadFramesTraced(&buf)
					if err != nil {
						t.Fatal(err)
					}
					if res := peer.ApplyFrames(decoded); res.Applied != 1 {
						t.Fatalf("trip %d: applied %+v, want one frame", trip, res)
					}
					for who, view := range map[string]*core.Mixed{"node": node.View(), "peer": peer.View()} {
						for i := uint32(0); i < uint32(gen.Dim()); i++ {
							if got, want := view.Estimate(i), sh.Estimate(i); got != want {
								t.Fatalf("trip %d: Estimate(%d) = %v in the %s's cluster view, %v in the learner's", trip, i, got, who, want)
							}
						}
						for j, ex := range holdout {
							if got, want := view.Predict(ex.X), sh.Predict(ex.X); got != want {
								t.Fatalf("trip %d: held-out example %d predicts %v in the %s's cluster view, %v in the learner's", trip, j, got, who, want)
							}
						}
						if got, want := view.TopK(cfg.HeapSize), sh.TopK(cfg.HeapSize); !slices.Equal(got, want) {
							t.Fatalf("trip %d: the %s's cluster top-%d differs from the learner's", trip, who, cfg.HeapSize)
						}
					}
				}
			})
		}
	}
}

// TestDeltaFramesAfterFirstSync: the first reconciliation ships a full
// snapshot; subsequent rounds, with the base acked, must ship deltas — and
// they must reconstruct the newer version exactly.
func TestDeltaFramesAfterFirstSync(t *testing.T) {
	a, b := newMember(t, "node-a"), newMember(t, "node-b")
	gen := datagen.RCV1Like(5)
	train(b, gen.Take(1000))

	exchange(t, a, b)
	st := b.node.Status()
	if st.FullsOut != 1 || st.DeltasOut != 0 {
		t.Fatalf("first sync: fulls=%d deltas=%d, want 1/0", st.FullsOut, st.DeltasOut)
	}

	// A little more training on b: now a holds the base, so b must send a
	// delta.
	train(b, gen.Take(50))
	exchange(t, a, b)
	st = b.node.Status()
	if st.DeltasOut != 1 {
		t.Fatalf("second sync sent no delta: fulls=%d deltas=%d", st.FullsOut, st.DeltasOut)
	}

	// The reconstructed state must match b's own snapshot bit-wise.
	snB, err := b.learner.ModelSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	aStatus := a.node.Status()
	var got *OriginStatus
	for i := range aStatus.Origins {
		if aStatus.Origins[i].ID == "node-b" {
			got = &aStatus.Origins[i]
		}
	}
	if got == nil || got.Steps != snB.Steps {
		t.Fatalf("a's view of node-b: %+v, want steps %d", got, snB.Steps)
	}
	// And a's merged view of a heavy b-feature equals direct mixing.
	frames := b.node.BuildFrames(a.node.Digest(), false)
	if len(frames) != 0 {
		t.Fatalf("a is fully synced yet b built %d frames", len(frames))
	}
}

// TestDeltaSmallerThanFull measures what the ISSUE requires: after a small
// increment, the delta frame must encode to fewer bytes than the full
// snapshot.
func TestDeltaSmallerThanFull(t *testing.T) {
	a, b := newMember(t, "node-a"), newMember(t, "node-b")
	gen := datagen.RCV1Like(5)
	train(b, gen.Take(2000))
	exchange(t, a, b)

	train(b, gen.Take(20))
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	deltaFrames := b.node.BuildFrames(a.node.Digest(), false)
	if len(deltaFrames) != 1 || deltaFrames[0].Kind != kindDelta {
		t.Fatalf("expected one delta frame, got %+v", deltaFrames)
	}
	var deltaBuf bytes.Buffer
	deltaBytes, err := WriteFrames(&deltaBuf, deltaFrames)
	if err != nil {
		t.Fatal(err)
	}
	fullDigest := map[string]int64{} // knows nothing → full
	fullFrames := b.node.BuildFrames(fullDigest, false)
	if len(fullFrames) != 1 || fullFrames[0].Kind != kindFull {
		t.Fatalf("expected one full frame, got %d", len(fullFrames))
	}
	var fullBuf bytes.Buffer
	fullBytes, err := WriteFrames(&fullBuf, fullFrames)
	if err != nil {
		t.Fatal(err)
	}
	if deltaBytes >= fullBytes {
		t.Fatalf("delta (%d B) not smaller than full (%d B)", deltaBytes, fullBytes)
	}
	t.Logf("delta %d B vs full %d B (%.1f%%)", deltaBytes, fullBytes, 100*float64(deltaBytes)/float64(fullBytes))
}

// TestTransitiveRelay: in a line topology a—b—c, a's state must reach c
// through b without a and c ever talking.
func TestTransitiveRelay(t *testing.T) {
	a, b, c := newMember(t, "node-a"), newMember(t, "node-b"), newMember(t, "node-c")
	train(a, datagen.RCV1Like(3).Take(800))

	exchange(t, b, a) // b learns a
	exchange(t, c, b) // c learns a via b

	found := false
	for _, o := range c.node.Status().Origins {
		if o.ID == "node-a" && o.Steps == 800 {
			found = true
		}
	}
	if !found {
		t.Fatalf("node-a did not relay through b to c: %+v", c.node.Status().Origins)
	}
}

// TestIdempotentReplay: applying the same frames twice must change nothing
// the second time.
func TestIdempotentReplay(t *testing.T) {
	a, b := newMember(t, "node-a"), newMember(t, "node-b")
	train(b, datagen.RCV1Like(17).Take(500))
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	frames := b.node.BuildFrames(a.node.Digest(), false)
	first := a.node.ApplyFrames(frames)
	if first.Applied != 1 {
		t.Fatalf("first apply: %+v", first)
	}
	second := a.node.ApplyFrames(frames)
	if second.Applied != 0 || second.Stale != 1 {
		t.Fatalf("replay applied state again: %+v", second)
	}
}

// TestRejectsOwnOriginAndBadGeometry: a node must not let a peer overwrite
// its own origin, nor adopt state from a differently-seeded cluster.
func TestRejectsOwnOriginAndBadGeometry(t *testing.T) {
	a := newMember(t, "node-a")
	train(a, datagen.RCV1Like(2).Take(100))
	if _, _, err := a.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}

	// Forge a frame claiming a's own origin at a huge version.
	impostor := newMember(t, "node-a")
	train(impostor, datagen.RCV1Like(99).Take(2000))
	if _, _, err := impostor.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	frames := impostor.node.BuildFrames(map[string]int64{}, false)
	res := a.node.ApplyFrames(frames)
	if res.Applied != 0 || res.Rejected != 1 {
		t.Fatalf("own-origin frame not rejected: %+v", res)
	}

	// A node from a different-seed cluster must be rejected too.
	otherCfg := clusterConfig()
	otherCfg.Seed = 12345
	l := core.NewAWMSketch(otherCfg)
	other, err := NewNode(Config{Self: "node-x", Mix: core.MixOptions{
		Depth: otherCfg.Depth, Width: otherCfg.Width, Seed: otherCfg.Seed, HeapSize: otherCfg.HeapSize,
	}, Local: l, Interval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range datagen.RCV1Like(1).Take(200) {
		l.Update(ex.X, ex.Y)
	}
	if _, _, err := other.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	frames = other.BuildFrames(map[string]int64{}, false)
	res = a.node.ApplyFrames(frames)
	if res.Applied != 0 || res.Rejected != 1 {
		t.Fatalf("wrong-seed frame not rejected: %+v", res)
	}
}

// TestStaleBaseFallsBackToFull: when the requester's acked version has
// aged out of the history window, the responder must send a full frame
// rather than fail.
func TestStaleBaseFallsBackToFull(t *testing.T) {
	cfg := clusterConfig()
	l := core.NewAWMSketch(cfg)
	b, err := NewNode(Config{
		Self: "node-b", Mix: mixOpt(cfg), Local: l, Interval: -1, HistoryDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := datagen.RCV1Like(8)
	for _, ex := range gen.Take(100) {
		l.Update(ex.X, ex.Y)
	}
	v1, _, err := b.PublishLocal()
	if err != nil {
		t.Fatal(err)
	}
	// Age v1 out of the 2-deep history with two more publishes.
	for round := 0; round < 2; round++ {
		for _, ex := range gen.Take(100) {
			l.Update(ex.X, ex.Y)
		}
		if _, _, err := b.PublishLocal(); err != nil {
			t.Fatal(err)
		}
	}
	frames := b.BuildFrames(map[string]int64{"node-b": v1}, false)
	if len(frames) != 1 || frames[0].Kind != kindFull {
		t.Fatalf("stale base did not fall back to full: %+v", frames)
	}
}

// TestWireRoundTripAllKinds round-trips every frame kind through the
// encoder.
func TestWireRoundTripAllKinds(t *testing.T) {
	b := newMember(t, "node-b")
	train(b, datagen.RCV1Like(4).Take(300))
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	full := b.node.BuildFrames(map[string]int64{}, true)
	if len(full) != 2 || full[0].Kind != kindDigest || full[1].Kind != kindFull {
		t.Fatalf("unexpected frames: %d", len(full))
	}
	train(b, datagen.RCV1Like(44).Take(30))
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	delta := b.node.BuildFrames(map[string]int64{"node-b": full[1].Version}, false)
	if len(delta) != 1 || delta[0].Kind != kindDelta {
		t.Fatalf("expected delta frame, got kind %d", delta[0].Kind)
	}
	all := append(append([]Frame{}, full...), delta...)
	var buf bytes.Buffer
	if _, err := WriteFrames(&buf, all); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrames(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Fatalf("round-trip %d frames, want %d", len(got), len(all))
	}
	for i := range all {
		w, g := all[i], got[i]
		if g.Kind != w.Kind || g.Origin != w.Origin || g.Version != w.Version || g.Base != w.Base {
			t.Fatalf("frame %d header mismatch: %+v vs %+v", i, g, w)
		}
		if w.Kind == kindDigest && fmt.Sprint(g.Digest) != fmt.Sprint(w.Digest) {
			t.Fatalf("digest mismatch: %v vs %v", g.Digest, w.Digest)
		}
		if len(g.Changes) != len(w.Changes) || len(g.Heavy) != len(w.Heavy) || len(g.HeavyUpserts) != len(w.HeavyUpserts) {
			t.Fatalf("frame %d payload size mismatch", i)
		}
		for j := range w.Changes {
			if g.Changes[j] != w.Changes[j] {
				t.Fatalf("frame %d change %d mismatch", i, j)
			}
		}
	}
}

// TestReadFramesRejectsGarbage: corrupt streams must error cleanly.
func TestReadFramesRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		{1, 2, 3},
		{0x46, 0x43, 0x4d, 0x57, 1, 0, 0, 0, 99}, // good header, bad kind
	}
	for i, c := range cases {
		if _, err := ReadFrames(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}
