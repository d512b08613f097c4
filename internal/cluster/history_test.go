package cluster

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
)

// refVersion is one version of an origin in full, its heavy list in
// weight order.
type refVersion struct {
	version int64
	scale   float64
	cs      *sketch.CountSketch
	heavy   []stream.Weighted
}

// refOrigin is the reference the reverse-delta history is checked
// against. It keeps each of its last depth versions in full, and builds
// and applies frames with the sketch diff and the map-based heavy-list
// definitions (refDiffHeavy, refApplyHeavyDiff) only: no code of the
// reverse path.
type refOrigin struct {
	id       string
	depth    int
	versions []refVersion // ascending
	dropped  int64        // the last version to leave the window
}

func (r *refOrigin) cur() refVersion { return r.versions[len(r.versions)-1] }

func (r *refOrigin) find(version int64) (refVersion, bool) {
	for _, v := range r.versions {
		if v.version == version {
			return v, true
		}
	}
	return refVersion{}, false
}

func (r *refOrigin) adopt(v refVersion) {
	r.versions = append(r.versions, v)
	if len(r.versions) > r.depth {
		r.dropped = r.versions[0].version
		r.versions = slices.Clone(r.versions[1:])
	}
}

// frame is the frame for a peer that acked version acked: a delta from
// it when it is held and the delta is the smaller frame, else the full
// current version.
func (r *refOrigin) frame(acked int64) Frame {
	cur := r.cur()
	if base, ok := r.find(acked); ok && acked > 0 {
		changes, err := sketch.Diff(base.cs, cur.cs)
		if err == nil && 3*len(changes) <= 2*cur.cs.Size() {
			removed, upserts := refDiffHeavy(base.heavy, cur.heavy)
			return Frame{Kind: kindDelta, Origin: r.id, Version: cur.version, Base: acked, Scale: cur.scale,
				Changes: changes, HeavyRemoved: removed, HeavyUpserts: upserts}
		}
	}
	scale := cur.scale
	if scale == 0 {
		scale = 1
	}
	return Frame{Kind: kindFull, Origin: r.id, Version: cur.version, Scale: scale, CS: cur.cs, Heavy: cur.heavy}
}

// apply adopts f, and reports false for a delta whose base it lacks.
func (r *refOrigin) apply(f Frame) bool {
	if f.Kind == kindFull {
		r.adopt(refVersion{version: f.Version, scale: f.Scale, cs: f.CS.Clone(), heavy: slices.Clone(f.Heavy)})
		return true
	}
	base, ok := r.find(f.Base)
	if !ok {
		return false
	}
	cs := base.cs.Clone()
	if err := cs.ApplyDiff(f.Changes); err != nil {
		panic(err)
	}
	r.adopt(refVersion{version: f.Version, scale: f.Scale, cs: cs,
		heavy: refApplyHeavyDiff(base.heavy, f.HeavyRemoved, f.HeavyUpserts)})
	return true
}

// historyValue draws a bucket or heavy weight: mostly normal, often a
// signed zero, so that zeros flip sign between versions.
func historyValue(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	default:
		return rng.NormFloat64()
	}
}

// nextVersion derives a version from prev (or a first one from nothing)
// as a learner moves between publishes: about a third of the buckets and
// heavy weights change, some keys leave the heavy list and others join.
func nextVersion(rng *rand.Rand, prev *refVersion, width, heap int) refVersion {
	var cs *sketch.CountSketch
	weights := map[uint32]float64{}
	version := int64(1)
	if prev == nil {
		cs = sketch.NewCountSketch(1, width, 7)
	} else {
		cs = prev.cs.Clone()
		version = prev.version
		for _, w := range prev.heavy {
			weights[w.Index] = w.Weight
		}
	}
	var set []sketch.BucketChange
	for i := range width {
		if prev == nil || rng.Intn(3) == 0 {
			set = append(set, sketch.BucketChange{Index: uint32(i), Value: historyValue(rng)})
		}
	}
	if err := cs.ApplyDiff(set); err != nil {
		panic(err)
	}
	if prev != nil {
		for _, w := range prev.heavy {
			switch rng.Intn(8) {
			case 0:
				delete(weights, w.Index)
			case 1, 2:
				weights[w.Index] = historyValue(rng)
			case 3:
				weights[w.Index] = -w.Weight
			}
		}
	}
	for len(weights) < heap {
		weights[uint32(rng.Intn(8*heap))] = historyValue(rng)
	}
	heavy := make([]stream.Weighted, 0, len(weights))
	for k, w := range weights {
		heavy = append(heavy, stream.Weighted{Index: k, Weight: w})
	}
	stream.SortWeighted(heavy)
	return refVersion{version: version + 1 + int64(rng.Intn(50)), scale: 0.5 + rng.Float64(), cs: cs, heavy: heavy}
}

// scriptedSnapshotter publishes the versions a test hands it.
type scriptedSnapshotter struct{ next core.Snapshot }

func (s *scriptedSnapshotter) Steps() int64 { return s.next.Steps }

func (s *scriptedSnapshotter) ModelSnapshot() (core.Snapshot, error) {
	sn := s.next
	sn.CS = sn.CS.Clone()
	sn.Heavy = slices.Clone(sn.Heavy)
	return sn, nil
}

// historyHarness drives one node through self publishes and a peer
// origin's full and delta frames, and keeps a reference of what the node
// must hold for each origin.
type historyHarness struct {
	rng         *rand.Rand
	width, heap int
	n           *Node
	local       *scriptedSnapshotter
	sender      *refOrigin // every version of the peer origin
	src, self   *refOrigin // what the node must hold
}

func newHistoryHarness(t *testing.T, seed int64, width, heap, depth int) *historyHarness {
	t.Helper()
	h := &historyHarness{
		rng: rand.New(rand.NewSource(seed)), width: width, heap: heap,
		local:  &scriptedSnapshotter{},
		sender: &refOrigin{id: "src", depth: math.MaxInt},
		src:    &refOrigin{id: "src", depth: depth},
		self:   &refOrigin{id: "self", depth: depth},
	}
	n, err := NewNode(Config{Self: "self", Mix: core.MixOptions{Depth: 1, Width: width, Seed: 7, HeapSize: heap},
		Local: h.local, Interval: -1, HistoryDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	h.n = n
	return h
}

func (h *historyHarness) next(r *refOrigin) refVersion {
	if len(r.versions) == 0 {
		return nextVersion(h.rng, nil, h.width, h.heap)
	}
	prev := r.cur()
	return nextVersion(h.rng, &prev, h.width, h.heap)
}

// publish makes a new version of the node's own origin.
func (h *historyHarness) publish(t *testing.T) {
	t.Helper()
	v := h.next(h.self)
	h.local.next = core.Snapshot{Origin: "self", CS: v.cs, Scale: v.scale, Heavy: v.heavy, Steps: v.version}
	if _, published, err := h.n.PublishLocal(); err != nil || !published {
		t.Fatalf("publish: %v %v", published, err)
	}
	h.self.adopt(v)
}

// deliver makes a new version of the peer origin and sends it as a frame
// against the version the node holds age versions before its current one:
// a full frame for age < 0, and a delta on the version that last left the
// window for the age just past it.
func (h *historyHarness) deliver(t *testing.T, age int) {
	t.Helper()
	h.sender.adopt(h.next(h.sender))
	var acked int64
	switch held := len(h.src.versions); {
	case age >= 0 && age < held:
		acked = h.src.versions[held-1-age].version
	case age == held:
		acked = h.src.dropped
	}
	f := h.sender.frame(acked)
	frames, err := ReadFrames(bytes.NewReader(encodeFrames(t, []Frame{f})))
	if err != nil {
		t.Fatal(err)
	}
	res := h.n.ApplyFrames(frames)
	if applied := h.src.apply(frames[0]); applied != (res.Applied == 1) || res.Rejected != 0 {
		t.Fatalf("%s frame on version %d: node %+v, reference applied %v", kindLabel(f.Kind), f.Base, res, applied)
	}
}

// check compares everything the node holds with the reference: each
// origin's versions, rebuilt bit for bit, and the stream BuildFrames
// writes for a peer at each of them, at none, and at a version that left
// the window.
func (h *historyHarness) check(t *testing.T) {
	t.Helper()
	digest := h.n.Digest()
	for _, r := range []*refOrigin{h.src, h.self} {
		if len(r.versions) == 0 {
			continue
		}
		h.n.mu.Lock()
		o := h.n.origins[r.id]
		if o.versions() != len(r.versions) {
			h.n.mu.Unlock()
			t.Fatalf("%s: holds %d versions, reference %d", r.id, o.versions(), len(r.versions))
		}
		for age := range len(r.versions) {
			want := r.versions[len(r.versions)-1-age]
			got, err := o.rebuild(age, new(baseScratch))
			if err != nil || got.Steps != want.version || math.Float64bits(got.Scale) != math.Float64bits(want.scale) ||
				!sameBuckets(got.CS, want.cs) || !sameWeighted(got.Heavy, kept(want.heavy)) {
				h.n.mu.Unlock()
				t.Fatalf("%s: the version %d before the current one differs from the reference's %d", r.id, age, want.version)
			}
		}
		h.n.mu.Unlock()
		bases := []int64{0}
		for _, v := range r.versions[:len(r.versions)-1] {
			bases = append(bases, v.version)
		}
		if r.dropped > 0 {
			bases = append(bases, r.dropped)
		}
		for _, base := range bases {
			theirs := maps.Clone(digest)
			theirs[r.id] = base
			got := encodeFrames(t, h.n.BuildFrames(theirs, false))
			want := encodeFrames(t, []Frame{r.frame(base)})
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: the stream for a peer at version %d differs from the reference's (%d vs %d bytes)",
					r.id, base, len(got), len(want))
			}
		}
	}
}

// sameBuckets compares two sketches bucket by bucket, bit for bit.
func sameBuckets(a, b *sketch.CountSketch) bool {
	if a.Size() != b.Size() {
		return false
	}
	for i := range uint32(a.Size()) {
		if math.Float64bits(a.At(i)) != math.Float64bits(b.At(i)) {
			return false
		}
	}
	return true
}

// TestReverseHistoryMatchesFullHistory: a node that keeps older versions
// as reverse deltas holds, and serves, what a node that kept each in full
// would. Random runs of self publishes, full frames, deltas on the current
// version and deltas on older ones, with buckets and weights that often
// are signed zeros, at 1024×1 with heap 256 and at wmserve's 4096×1 with
// heap 2048: after each step every retained version rebuilds bit for bit,
// and the stream built for a peer at any of them is the reference's, byte
// for byte.
func TestReverseHistoryMatchesFullHistory(t *testing.T) {
	for _, g := range []struct{ width, heap, steps int }{{1024, 256, 150}, {4096, 2048, 40}} {
		t.Run(fmt.Sprintf("%dx1/heap=%d", g.width, g.heap), func(t *testing.T) {
			h := newHistoryHarness(t, int64(g.width), g.width, g.heap, 8)
			h.publish(t)
			h.deliver(t, -1)
			for range g.steps {
				// A third of the buckets change a version, so a delta more
				// than two versions back is larger than a full frame; the
				// version before the current one is drawn most often.
				switch op := h.rng.Intn(8); {
				case op == 0:
					h.publish(t)
				case op == 1:
					h.deliver(t, -1)
				case op < 5:
					h.deliver(t, 0)
				case op < 7:
					h.deliver(t, 1)
				default:
					h.deliver(t, 1+h.rng.Intn(len(h.src.versions)))
				}
				h.check(t)
			}
			st, older := h.n.Status(), h.n.met.appliedOlderBase.Value()
			t.Logf("adopted %d full frames and %d deltas, %d of them on an older version", st.FullsIn, st.DeltasIn, older)
			if st.DeltasIn == 0 || older == 0 {
				t.Fatal("the run adopted no delta, or none on an older version")
			}
		})
	}
}

// TestReverseHistoryBoundedSweep checks every pair of history length and
// base age at depths 1 to 4, on a tiny geometry: every sequence of full
// frames, deltas on the current version and deltas on the oldest version
// held, one version past the depth; then a frame built for a peer at each
// age, and a delta applied on each, one age past the window included.
func TestReverseHistoryBoundedSweep(t *testing.T) {
	cases := 0
	for depth := 1; depth <= 4; depth++ {
		for length := 1; length <= depth+1; length++ {
			for seq := range pow(3, length) {
				for age := 0; age <= min(length, depth); age++ {
					h := newHistoryHarness(t, int64(seq*7+age), 8, 4, depth)
					for i, kind := 0, seq; i < length; i, kind = i+1, kind/3 {
						switch kind % 3 {
						case 0:
							h.deliver(t, -1)
						case 1:
							h.deliver(t, 0)
						default:
							h.deliver(t, len(h.src.versions)-1)
						}
					}
					h.check(t)
					h.deliver(t, age)
					h.check(t)
					cases++
				}
			}
		}
	}
	t.Logf("%d histories checked", cases)
}

func pow(b, e int) int {
	n := 1
	for range e {
		n *= b
	}
	return n
}

// TestOutOfOrderDeltaKeepsExactHistory: a delta frame built by hand with
// its changes out of order, one bucket named twice, is refused, on the
// current version and on an older one: it counts in Rejected, and the
// origin keeps its versions and streams bit for bit (the decoder never
// yields such a frame, but ApplyFrames takes frames from any caller). An
// ordered delta on the same base applies afterwards.
func TestOutOfOrderDeltaKeepsExactHistory(t *testing.T) {
	h := newHistoryHarness(t, 5, 8, 4, 8)
	h.deliver(t, -1)
	h.deliver(t, 0)
	h.check(t)
	cur := h.src.cur()
	for _, base := range []int64{cur.version, h.src.versions[0].version} {
		f := Frame{Kind: kindDelta, Origin: "src", Version: cur.version + 1, Base: base, Scale: 1,
			Changes: []sketch.BucketChange{{Index: 5, Value: 1.5}, {Index: 2, Value: -2}, {Index: 5, Value: 3}}}
		rejected := h.n.met.rejectedFrames.Value()
		if res := h.n.ApplyFrames([]Frame{f}); res.Applied != 0 || res.Rejected != 1 || res.Changed {
			t.Fatalf("out-of-order delta on version %d: %+v, want it rejected", base, res)
		}
		if got := h.n.met.rejectedFrames.Value() - rejected; got != 1 {
			t.Fatalf("wmgossip_rejected_frames_total moved by %d, want 1", got)
		}
		h.check(t)
	}
	h.deliver(t, 0)
	h.check(t)
}

// TestHistoryTrimReleasesDroppedVersions: after 3×HistoryDepth versions an
// origin holds HistoryDepth of them, and only the current one in full.
// Every other version's sketch is garbage, and no version that left the
// window is reachable as a version: its packed buffer is garbage, or it
// lives on as the buffer of a version the history holds (a new reverse
// delta may take over the buffer of the version it pushes out), and no
// slot past the history's length holds an entry.
func TestHistoryTrimReleasesDroppedVersions(t *testing.T) {
	const depth = 8
	h := newHistoryHarness(t, 1, 64, 8, depth)
	sketches := map[int64]weak.Pointer[sketch.CountSketch]{}
	buffers := map[int64]weak.Pointer[byte]{}
	taken := 0
	for range 3 * depth {
		h.publish(t)
		h.n.mu.Lock()
		o := h.n.origins["self"]
		sketches[o.version] = weak.Make(o.snap.CS)
		if k := len(o.history); k > 0 {
			buffers[o.history[k-1].version] = weak.Make(&o.history[k-1].packed[0])
		}
		h.n.mu.Unlock()
		runtime.GC()
		h.n.mu.Lock()
		if len(o.history) > depth-1 {
			t.Fatalf("history holds %d older versions, want at most %d", len(o.history), depth-1)
		}
		for _, r := range o.history[len(o.history):cap(o.history)] {
			if !reflect.ValueOf(r).IsZero() {
				t.Fatalf("a slot past the history's length holds version %d", r.version)
			}
		}
		for v, p := range sketches {
			if v != o.version && p.Value() != nil {
				t.Fatalf("at version %d the sketch of version %d is still reachable", o.version, v)
			}
		}
		holder := map[*byte]int64{}
		for i := range o.history {
			holder[&o.history[i].packed[0]] = o.history[i].version
		}
		for v, p := range buffers {
			b := p.Value()
			if o.age(v) >= 0 || b == nil {
				continue
			}
			w, held := holder[b]
			if !held {
				t.Fatalf("at version %d version %d left the window, and its reverse delta is still reachable", o.version, v)
			}
			t.Logf("at version %d the buffer of version %d, which left the window, is version %d's", o.version, v, w)
			taken++
		}
		h.n.mu.Unlock()
	}
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	if o := h.n.origins["self"]; len(o.history) != depth-1 || len(buffers) != 3*depth-1 {
		t.Fatalf("history holds %d older versions of %d tracked; want %d of %d", len(o.history), len(buffers), depth-1, 3*depth-1)
	}
	t.Logf("%d checks found a dropped version's buffer taken over", taken)
}

// TestStateBytesMatchOrigins: the wmgossip_state_bytes gauge is the sum of
// the per-origin state_bytes in /v1/cluster/status, no origin holds more
// versions than HistoryDepth, and a busy origin holds exactly that many.
func TestStateBytesMatchOrigins(t *testing.T) {
	cfg := clusterConfig()
	members := make([]*testMember, 3)
	for i := range members {
		l := core.NewAWMSketch(cfg)
		n, err := NewNode(Config{Self: fmt.Sprintf("node-%d", i), Mix: mixOpt(cfg), Local: l, Interval: -1, HistoryDepth: 3})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = &testMember{node: n, learner: l}
	}
	gen := datagen.RCV1Like(9)
	for range 6 {
		for _, m := range members {
			train(m, gen.Take(200))
		}
		for _, a := range members {
			for _, b := range members {
				if a != b {
					exchange(t, a, b)
				}
			}
		}
	}
	for _, m := range members {
		st := m.node.Status()
		var sum int64
		for _, o := range st.Origins {
			sum += o.StateBytes
			if o.History != 3 {
				t.Errorf("%s holds %d versions of %s, want HistoryDepth 3", st.Self, o.History, o.ID)
			}
		}
		gauge, ok := m.node.Metrics().Value("wmgossip_state_bytes")
		if !ok || int64(gauge) != sum || sum != m.node.stateBytes() || sum == 0 {
			t.Errorf("%s: gauge %v (registered %v), status sum %d, StateBytes %d; want all equal and positive",
				st.Self, gauge, ok, sum, m.node.stateBytes())
		}
	}
}

// originHistoryFrames trains an AWM-Sketch at 4096×1 with heap 2048 and
// returns the frames a peer receives for its first versions: a full
// frame, then deltas on the version before. The versions are 416
// RCV1-like examples apart, which changes about 1,480 buckets and 810
// heavy entries a version: what a version changes in the gossip workload
// of perfbench (1,468 buckets and 867 entries on average over a 10-s run).
func originHistoryFrames(tb testing.TB, versions int) (core.Config, []Frame) {
	tb.Helper()
	cfg := core.Config{Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 7}
	l := core.NewAWMSketch(cfg)
	gen := datagen.RCV1Like(8)
	for _, ex := range gen.Take(20000) {
		l.Update(ex.X, ex.Y)
	}
	send, err := NewNode(Config{Self: "origin", Mix: mixOpt(cfg), Local: l, Interval: -1})
	if err != nil {
		tb.Fatal(err)
	}
	var frames []Frame
	var acked int64
	for range versions {
		if _, _, err := send.PublishLocal(); err != nil {
			tb.Fatal(err)
		}
		fs := send.BuildFrames(map[string]int64{"origin": acked}, false)
		if len(fs) != 1 {
			tb.Fatalf("built %d frames, want 1", len(fs))
		}
		frames = append(frames, fs[0])
		acked = fs[0].Version
		for _, ex := range gen.Take(416) {
			l.Update(ex.X, ex.Y)
		}
	}
	return cfg, frames
}

// holdOrigin applies frames to a new node at the default history depth.
func holdOrigin(tb testing.TB, cfg core.Config, frames []Frame) *Node {
	tb.Helper()
	n, err := NewNode(Config{Self: "holder", Mix: mixOpt(cfg), Local: core.NewAWMSketch(cfg), Interval: -1})
	if err != nil {
		tb.Fatal(err)
	}
	applyEach(tb, n, frames)
	return n
}

// applyEach applies frames to n one at a time.
func applyEach(tb testing.TB, n *Node, frames []Frame) {
	tb.Helper()
	for _, f := range frames {
		if res := n.ApplyFrames([]Frame{f}); res.Applied != 1 {
			tb.Fatalf("apply: %+v", res)
		}
	}
}

// fullVersionsBytes is what eight full versions take at 4096×1 with heap
// 2048: buckets and heavy entries.
const fullVersionsBytes = 8 * (8*4096 + 16*2048)

// TestOriginHistoryStateBytes: one origin holding eight versions at
// 4096×1 with heap 2048 takes at most 45% of what the eight take in full
// (38.1% with its reverse deltas packed).
func TestOriginHistoryStateBytes(t *testing.T) {
	cfg, frames := originHistoryFrames(t, 9)
	n := holdOrigin(t, cfg, frames)
	st := n.Status()
	if len(st.Origins) != 1 || st.Origins[0].History != 8 {
		t.Fatalf("status %+v, want one origin holding 8 versions", st.Origins)
	}
	got := st.Origins[0].StateBytes
	t.Logf("8 versions take %d bytes, %.1f%% of %d in full", got, 100*float64(got)/fullVersionsBytes, fullVersionsBytes)
	if got > fullVersionsBytes*45/100 {
		t.Errorf("8 versions take %d bytes, over 45%% of the %d they take in full", got, fullVersionsBytes)
	}
}

// BenchmarkOriginHistory holds one origin at 4096×1, heap 2048 and the
// default depth of 8, its versions as far apart as in the gossip workload
// (originHistoryFrames). It times adopting a version (a delta on the
// current one) and building the frame for a peer one and two versions
// behind, and reports the bytes the origin retains on the heap and its
// state bytes (the current version and the packed reverse deltas), next
// to what eight full versions take.
func BenchmarkOriginHistory(b *testing.B) {
	cfg, frames := originHistoryFrames(b, 11)
	n := holdOrigin(b, cfg, nil)
	// Two collections empty the scratch pools as well.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	applyEach(b, n, frames[:9])
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	state := float64(n.stateBytes())
	report := func(b *testing.B) {
		b.ReportMetric(retained, "retained_B/origin")
		b.ReportMetric(state, "state_B/origin")
		b.ReportMetric(fullVersionsBytes, "full_B/origin")
	}
	o := n.origins["origin"]

	b.Run("adopt", func(b *testing.B) {
		// Two versions in turn, each as a delta on the other under a new
		// version number.
		h := holdOrigin(b, cfg, frames[:10])
		v10, v11 := h.origins["origin"].snap, holdOrigin(b, cfg, frames[:11]).origins["origin"].snap
		ab := frames[10]
		ba := ab
		ba.Changes, _ = sketch.Diff(v11.CS, v10.CS)
		ba.HeavyRemoved, ba.HeavyUpserts = diffHeavy(v11.Heavy, v10.Heavy)
		v := h.Digest()["origin"]
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			f := ab
			if i%2 == 1 {
				f = ba
			}
			f.Base, f.Version = v, v+1
			v++
			if res := h.ApplyFrames([]Frame{f}); res.Applied != 1 {
				b.Fatalf("apply: %+v", res)
			}
		}
		report(b)
	})
	for _, age := range []int{1, 2} {
		b.Run(fmt.Sprintf("build/age=%d", age), func(b *testing.B) {
			acked := o.history[len(o.history)-age].version
			if f := buildFrame(o, acked); f.Kind != kindDelta {
				b.Fatalf("built a %s frame, want a delta", kindLabel(f.Kind))
			}
			b.ReportAllocs()
			for b.Loop() {
				buildFrame(o, acked)
			}
			report(b)
		})
	}
}

// TestPackedDeltaRoundTrip: a reverse delta packs at exactly the size its
// lists encode to, and unpacks to them bit for bit, into scratch that held
// other lists: empty lists, bucket 0 and the top index, keys 0 and
// 2^32−1, signed zeros, subnormals and the largest magnitudes.
func TestPackedDeltaRoundTrip(t *testing.T) {
	negZero, sub := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	type bc = sketch.BucketChange
	type w = stream.Weighted
	cases := []struct {
		name    string
		changes []sketch.BucketChange
		added   []uint32
		heavy   []stream.Weighted
	}{
		{"empty", nil, nil, nil},
		{"bucket 0", []bc{{Index: 0, Value: negZero}}, nil, nil},
		{"bucket 0 and the top index", []bc{{Index: 0, Value: sub}, {Index: 1, Value: -sub},
			{Index: 1 << 14, Value: 0}, {Index: math.MaxUint32, Value: -math.MaxFloat64}}, nil, nil},
		{"keys 0 and 2^32-1", nil, []uint32{0, math.MaxUint32},
			[]w{{Index: 0, Weight: negZero}, {Index: 127, Weight: sub}, {Index: math.MaxUint32, Weight: math.MaxFloat64}}},
		{"heavy only", nil, nil, []w{{Index: 1 << 21, Weight: -2.5}}},
		{"every list", []bc{{Index: 3, Value: 1e-300}, {Index: 200, Value: negZero}}, []uint32{5, 1 << 28},
			[]w{{Index: 4, Weight: -sub}, {Index: 9, Weight: 0}}},
	}
	// The scratch holds other lists when each case unpacks into it.
	held, err := appendDeltaLists(nil, []bc{{Index: 7, Value: 1}}, []uint32{1, 2}, []w{{Index: 3, Weight: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var l deltaLists
	l.unpack(&reverseDelta{packed: held})
	for _, c := range cases {
		o := &originState{version: 9, snap: core.Snapshot{Scale: 0.25}}
		r := o.packReverse(8, c.changes, c.added, c.heavy)
		if size := deltaListsSize(c.changes, c.added, c.heavy); len(r.packed) != size || cap(r.packed) != size || r.bytes() != int64(size) {
			t.Fatalf("%s: packed %d bytes in a %d-byte buffer, reporting %d; want exactly %d", c.name, len(r.packed), cap(r.packed), r.bytes(), size)
		}
		if r.version != 9 || r.scale != 0.25 {
			t.Fatalf("%s: packed version %d scale %g, want the current version's 9 and 0.25", c.name, r.version, r.scale)
		}
		l.unpack(r)
		sameChanges := slices.EqualFunc(l.changes, c.changes, func(a, b sketch.BucketChange) bool {
			return a.Index == b.Index && math.Float64bits(a.Value) == math.Float64bits(b.Value)
		})
		if !sameChanges || !slices.Equal(l.added, c.added) || !sameWeighted(l.heavy, c.heavy) {
			t.Fatalf("%s: unpacked %v %v %v, want %v %v %v", c.name, l.changes, l.added, l.heavy, c.changes, c.added, c.heavy)
		}
	}
}

// TestPackReverseTakesOverDroppedBuffer: when the adopt a reverse delta is
// packed for drops the oldest version, the delta is written into that
// version's buffer if the buffer is large enough and at most an eighth
// over; otherwise, and whenever the history is not full, it gets a buffer
// of its own, of exactly its size.
func TestPackReverseTakesOverDroppedBuffer(t *testing.T) {
	changes := make([]sketch.BucketChange, 80)
	for i := range changes {
		changes[i] = sketch.BucketChange{Index: uint32(3 * i), Value: float64(i)}
	}
	size := deltaListsSize(changes, nil, nil)
	for _, c := range []struct {
		name        string
		held, spare int // versions held before the current one; the oldest's capacity
		takeOver    bool
	}{
		{"exact fit", 3, size, true},
		{"an eighth over", 3, size + size/8, true},
		{"more than an eighth over", 3, size + size/8 + 1, false},
		{"too small", 3, size - 1, false},
		{"history not full", 2, size, false},
	} {
		o := &originState{version: 50}
		for v := range c.held {
			o.history = append(o.history, reverseDelta{version: int64(10 * (v + 1)), packed: make([]byte, 1, c.spare)})
		}
		oldest := &o.history[0].packed[:1][0]
		r := o.packReverse(4, changes, nil, nil)
		if took := &r.packed[:1][0] == oldest; took != c.takeOver {
			t.Errorf("%s: took over the oldest version's buffer: %v, want %v", c.name, took, c.takeOver)
		}
		if !c.takeOver && cap(r.packed) != size {
			t.Errorf("%s: a new buffer of %d bytes, want exactly %d", c.name, cap(r.packed), size)
		}
		var l deltaLists
		if l.unpack(r); !slices.Equal(l.changes, changes) {
			t.Errorf("%s: the packed delta does not unpack to its changes", c.name)
		}
	}
}

// TestNonFiniteVersionBuildsFrames: a local learner that diverged can
// publish an infinite bucket, which the decoder refuses. A peer one
// version past it gets the reference's delta byte for byte: the build
// reads the reverse delta that keeps the infinite value in place, only to
// compare it. A peer two versions past it gets a full frame of the
// current version: composing unpacks that reverse delta, which fails, and
// never yields a delta missing the changes after the infinite value.
func TestNonFiniteVersionBuildsFrames(t *testing.T) {
	h := newHistoryHarness(t, 3, 64, 8, 8)
	h.publish(t)
	first := h.self.cur().version
	v := h.next(h.self)
	v.cs.Update(5, math.Inf(1))
	h.local.next = core.Snapshot{Origin: "self", CS: v.cs, Scale: v.scale, Heavy: v.heavy, Steps: v.version}
	if _, published, err := h.n.PublishLocal(); err != nil || !published {
		t.Fatalf("publish: %v %v", published, err)
	}
	h.self.adopt(v)
	h.publish(t)
	cur := h.self.cur()
	inf := -1
	for i := range cur.cs.Size() {
		if math.IsInf(v.cs.At(uint32(i)), 0) {
			inf = i
		}
	}
	if inf < 0 || math.IsInf(cur.cs.At(uint32(inf)), 0) {
		t.Fatalf("version %d has no infinite bucket that the current version overwrote", v.version)
	}
	fs := h.n.BuildFrames(map[string]int64{"self": v.version}, false)
	if len(fs) != 1 || !bytes.Equal(encodeFrames(t, fs), encodeFrames(t, []Frame{h.self.frame(v.version)})) {
		t.Fatalf("a peer at version %d got %d frames, not the reference's delta", v.version, len(fs))
	}
	fs = h.n.BuildFrames(map[string]int64{"self": first}, false)
	if len(fs) != 1 || fs[0].Kind != kindFull || fs[0].Version != cur.version {
		t.Fatalf("a peer at version %d got %d frames, the first a %s frame; want one full frame", first, len(fs), kindLabel(fs[0].Kind))
	}
}
