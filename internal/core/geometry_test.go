package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/hashing"
	"wmsketch/internal/sketch"
)

// TestGeometrySharesOneHashFamily: every sketch built on a Geometry
// returns its family from Hashes(), pointer-equal: a sharded learner's
// shards, its initial view, a Sync's view and the view after Close; a
// restored learner's shards and first view; and a restored AWM-Sketch.
func TestGeometrySharesOneHashFamily(t *testing.T) {
	cfg := Config{Width: 1024, Depth: 3, HeapSize: 64, Lambda: 1e-5, Seed: 11}
	g := NewGeometry(cfg)
	want := g.Hashes()
	shared := func(what string, h *hashing.Family) {
		t.Helper()
		if h != want {
			t.Errorf("%s has a hash family of its own", what)
		}
	}
	shards := func(what string, s *Sharded) {
		t.Helper()
		for i, w := range s.workers {
			shared(fmt.Sprintf("%s shard %d", what, i), w.model.Sketch().Hashes())
		}
	}
	data := datagen.RCV1Like(5).Take(400)

	s := g.NewSharded(ShardedOptions{Workers: 2, SyncEvery: -1})
	shards("new", s)
	shared("initial view", s.currentView().Sketch().Hashes())
	s.UpdateBatch(data)
	s.Sync()
	shared("Sync's view", s.currentView().Sketch().Hashes())
	var ckpt bytes.Buffer
	if _, err := s.WriteTo(&ckpt); err != nil {
		t.Fatal(err)
	}
	s.UpdateBatch(data[:100])
	s.Close()
	shared("view after Close", s.currentView().Sketch().Hashes())

	r, err := g.LoadSharded(bytes.NewReader(ckpt.Bytes()), ShardedOptions{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	shards("restored", r)
	shared("restored view", r.currentView().Sketch().Hashes())

	a := g.NewAWMSketch()
	for _, ex := range data {
		a.Update(ex.X, ex.Y)
	}
	shared("new AWM-Sketch", a.Sketch().Hashes())
	ckpt.Reset()
	if _, err := a.WriteTo(&ckpt); err != nil {
		t.Fatal(err)
	}
	ra, err := g.LoadAWMSketch(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	shared("restored AWM-Sketch", ra.Sketch().Hashes())
	shared("mixed view", EmptyMixed(g.Mix()).Sketch().Hashes())
}

// TestLoadShardedSharesFirstShardFamily: without a geometry, LoadSharded
// builds one hash family, the first shard's, and every shard and the first
// view share it.
func TestLoadShardedSharesFirstShardFamily(t *testing.T) {
	blob, err := os.ReadFile(goldenCheckpointPath("sharded"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := LoadSharded(bytes.NewReader(blob), nil, nil, ShardedOptions{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := s.workers[0].model.Sketch().Hashes()
	for i, w := range s.workers {
		if w.model.Sketch().Hashes() != want {
			t.Errorf("shard %d has a hash family of its own", i)
		}
	}
	if s.currentView().Sketch().Hashes() != want {
		t.Error("the first view has a hash family of its own")
	}
}

// TestCloseKeepsAnUpToDateView: Close installs no new view when no update
// was routed since the installed one was built — after New, after a Sync,
// and after a restore — and merges again when one was.
func TestCloseKeepsAnUpToDateView(t *testing.T) {
	cfg := Config{Width: 512, Depth: 1, HeapSize: 32, Lambda: 1e-6, Seed: 3}
	data := datagen.RCV1Like(9).Take(300)
	closeKeeps := func(s *Sharded) bool {
		v := s.currentView()
		s.Close()
		return s.currentView() == v
	}

	if !closeKeeps(NewSharded(cfg, ShardedOptions{Workers: 2, SyncEvery: -1})) {
		t.Error("Close of a fresh learner merged")
	}
	s := NewSharded(cfg, ShardedOptions{Workers: 2, SyncEvery: -1})
	s.UpdateBatch(data)
	s.Sync()
	var ckpt bytes.Buffer
	if _, err := s.WriteTo(&ckpt); err != nil {
		t.Fatal(err)
	}
	if !closeKeeps(s) {
		t.Error("Close after a Sync that saw every update merged")
	}
	r, err := LoadSharded(bytes.NewReader(ckpt.Bytes()), nil, nil, ShardedOptions{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !closeKeeps(r) {
		t.Error("Close of an idle restored learner merged")
	}
	u := NewSharded(cfg, ShardedOptions{Workers: 2, SyncEvery: -1})
	u.UpdateBatch(data)
	u.Sync()
	u.UpdateBatch(data[:10])
	if closeKeeps(u) {
		t.Error("Close kept a view that misses updates routed after it")
	}
}

// FuzzLoadOnGeometry drives Geometry.LoadAWMSketch and
// Geometry.LoadSharded, on the geometries of the golden checkpoints, with
// those checkpoints, copies whose first model header disagrees with the
// geometry in one field, and truncated and bit-flipped copies. A loader
// must return an error or a model without panicking. It accepts exactly
// what the plain loader accepts with a header equal to the geometry, and a
// model it accepts serializes back to exactly the bytes it was given.
// The plain loader allocates the buckets a header declares before they
// arrive, so it runs only on inputs whose first model declares the
// geometry's sizes (headerOn): the ones it could accept with the
// geometry's header.
//
// `make fuzz-smoke` runs this next to FuzzLoadCheckpoint; longer runs:
// go test -fuzz FuzzLoadOnGeometry ./internal/core.
func FuzzLoadOnGeometry(f *testing.F) {
	awmGeo := NewGeometry(Config{Width: 128, Depth: 3, HeapSize: 16, Lambda: 1e-4, Seed: 9})
	shardedGeo := NewGeometry(Config{Width: 128, Depth: 2, HeapSize: 16, Lambda: 1e-5, Seed: 9})
	for _, name := range []string{"awm", "sharded"} {
		blob, err := os.ReadFile(goldenCheckpointPath(name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		model := 0
		if name == "sharded" {
			model = shardedHeaderSize
		}
		// One header field at a time: width, depth, heap size, λ, seed.
		for _, field := range []struct {
			at, size int
			val      uint64
		}{{8, 4, 256}, {12, 4, 1}, {16, 4, 8}, {20, 8, math.Float64bits(1e-3)}, {28, 8, 99}} {
			mut := append([]byte(nil), blob...)
			if field.size == 4 {
				binary.LittleEndian.PutUint32(mut[model+field.at:], uint32(field.val))
			} else {
				binary.LittleEndian.PutUint64(mut[model+field.at:], field.val)
			}
			f.Add(mut)
		}
		for _, cut := range []int{0, 20, 60, 290, len(blob) / 2, len(blob) - 1} {
			if cut < len(blob) {
				f.Add(append([]byte(nil), blob[:cut]...))
			}
		}
		for _, at := range []int{12, 40, 64, 260, len(blob) - 8} {
			if at < len(blob) {
				mut := append([]byte(nil), blob...)
				mut[at] ^= 0xA5
				f.Add(mut)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := awmGeo.LoadAWMSketch(bytes.NewReader(data))
		var plainCfg *Config
		if headerOn(awmGeo, data, 0) {
			if pa, perr := LoadAWMSketch(bytes.NewReader(data), nil, nil); perr == nil {
				plainCfg = &pa.cfg
			}
		}
		agreeOnGeometry(t, "awm", awmGeo, data, a, err, plainCfg)

		s, err := shardedGeo.LoadSharded(bytes.NewReader(data), ShardedOptions{SyncEvery: -1})
		if err == nil {
			defer s.Close()
		}
		plainCfg = nil
		if headerOn(shardedGeo, data, shardedHeaderSize) {
			if ps, perr := LoadSharded(bytes.NewReader(data), nil, nil, ShardedOptions{SyncEvery: -1}); perr == nil {
				defer ps.Close()
				plainCfg = &ps.geo.cfg
			}
		}
		agreeOnGeometry(t, "sharded", shardedGeo, data, s, err, plainCfg)
	})
}

// headerOn reports whether the model at offset model of data declares g's
// configuration in its header and in its sketch's, with at most g's heap
// size of heap entries between them. A checkpoint the plain loader accepts
// with g's header passes, and on one that passes the plain loader
// allocates no more than g's sizes: its later shards are read on the
// first one's geometry.
func headerOn(g *Geometry, data []byte, model int) bool {
	le := binary.LittleEndian
	if len(data) < model+stateHeaderSize {
		return false
	}
	h := data[model:]
	if g.check(le.Uint32(h[8:]), le.Uint32(h[12:]), le.Uint32(h[16:]),
		math.Float64frombits(le.Uint64(h[20:])), int64(le.Uint64(h[28:]))) != nil {
		return false
	}
	heapLen := le.Uint32(h[52:])
	at := stateHeaderSize + heapEntrySize*int(heapLen)
	if heapLen > uint32(g.cfg.HeapSize) || len(h) < at+24 {
		return false
	}
	cs := h[at:] // magic, version, seed, depth, width, flags
	return g.sk.Matches(int(le.Uint32(cs[16:])), int(le.Uint32(cs[20:])), int64(le.Uint64(cs[8:])))
}

// agreeOnGeometry checks a loader on g against the plain loader on the same
// data: the plain one accepted it with configuration plain (nil when it
// refused), the one on g returned m and err.
func agreeOnGeometry(t *testing.T, name string, g *Geometry, data []byte, m io.WriterTo, err error, plain *Config) {
	t.Helper()
	matches := plain != nil &&
		g.check(uint32(plain.Width), uint32(plain.Depth), uint32(plain.HeapSize), plain.Lambda, plain.Seed) == nil
	if (err == nil) != matches {
		t.Fatalf("%s: the loader on the geometry returned %v; the plain loader accepted: %v, with the geometry's header: %v",
			name, err, plain != nil, matches)
	}
	if err != nil {
		return
	}
	var out bytes.Buffer
	if _, err := m.WriteTo(&out); err != nil {
		t.Fatalf("%s: accepted checkpoint failed to re-serialize: %v", name, err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("%s: accepted checkpoint of %d bytes re-serializes to %d different bytes", name, len(data), out.Len())
	}
}

// sameMixed reports how two views differ bit for bit — merged buckets,
// scale, top list and mixed heavy weights — or "" when they do not.
func sameMixed(a, b *Mixed) string {
	if math.Float64bits(a.sqrtS) != math.Float64bits(b.sqrtS) {
		return "scale"
	}
	for j := 0; j < a.cs.Depth(); j++ {
		ra, rb := a.cs.Row(j), b.cs.Row(j)
		for i := range ra {
			if math.Float64bits(ra[i]) != math.Float64bits(rb[i]) {
				return fmt.Sprintf("bucket %d of row %d: %v vs %v", i, j, ra[i], rb[i])
			}
		}
	}
	if len(a.top) != len(b.top) {
		return fmt.Sprintf("top lengths %d vs %d", len(a.top), len(b.top))
	}
	for i := range a.top {
		if a.top[i].Index != b.top[i].Index || math.Float64bits(a.top[i].Weight) != math.Float64bits(b.top[i].Weight) {
			return fmt.Sprintf("top[%d]: %v vs %v", i, a.top[i], b.top[i])
		}
	}
	if len(a.exact) != len(b.exact) {
		return fmt.Sprintf("%d vs %d mixed heavy weights", len(a.exact), len(b.exact))
	}
	for k, w := range a.exact {
		if v, ok := b.exact[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Sprintf("heavy weight of %d: %v vs %v", k, w, v)
		}
	}
	return ""
}

// TestMixInPlaceMatchesSnapshots: a learner loaded from a checkpoint, and
// one retired by Close, mix their view from the shards' own sketches. That
// view must equal, bit for bit, the mix of ModelSnapshot clones of the
// same models — through mixShards, and through MixSnapshots on the
// snapshots' heavy lists in heap order — and the shards must serialize to
// the bytes they held before the mix. The sketches are narrow enough that
// active keys share buckets with each other and with the tail; depth 3
// also takes the median path.
func TestMixInPlaceMatchesSnapshots(t *testing.T) {
	for _, depth := range []int{1, 3} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			cfg := Config{Width: 64, Depth: depth, HeapSize: 32, Lambda: 1e-5, Seed: 17}
			data := datagen.RCV1Like(23).Take(1200)
			s := NewSharded(cfg, ShardedOptions{Workers: 2, SyncEvery: -1})
			s.UpdateBatch(data[:1000])
			var blob bytes.Buffer
			if _, err := s.WriteTo(&blob); err != nil {
				t.Fatal(err)
			}
			s.Close()

			// check compares s's view with the mixes of snapshot clones of
			// its models, and its serialization with want.
			check := func(when string, s *Sharded, want []byte) {
				t.Helper()
				snaps := make([]Snapshot, len(s.workers))
				heapOrder := make([]Snapshot, len(s.workers))
				collided := false
				for i, w := range s.workers {
					snaps[i], _ = w.model.ModelSnapshot()
					heapOrder[i], _ = w.model.ModelSnapshot()
					heapOrder[i].Origin = fmt.Sprintf("%06d", i)
					collided = collided || collides(w.model)
				}
				if !collided {
					t.Fatalf("%s: no two active keys share a bucket; the test needs a narrower sketch", when)
				}
				if diff := sameMixed(s.currentView(), s.geo.mixShards(snaps)); diff != "" {
					t.Errorf("%s: the view differs from mixShards over snapshot clones: %s", when, diff)
				}
				direct, err := MixSnapshots(heapOrder, s.geo.Mix())
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameMixed(s.currentView(), direct); diff != "" {
					t.Errorf("%s: the view differs from MixSnapshots over heap-order snapshots: %s", when, diff)
				}
				var got bytes.Buffer
				if _, err := s.WriteTo(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("%s: the shards serialize to other bytes than they held before the mix", when)
				}
			}

			r, err := LoadSharded(bytes.NewReader(blob.Bytes()), nil, nil, ShardedOptions{SyncEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			check("after the load", r, blob.Bytes())
			r.UpdateBatch(data[1000:])
			var held bytes.Buffer
			if _, err := r.WriteTo(&held); err != nil {
				t.Fatal(err)
			}
			v := r.currentView()
			r.Close()
			if r.currentView() == v {
				t.Fatal("Close kept a view that misses updates routed after it")
			}
			check("after Close", r, held.Bytes())
		})
	}
}

// collides reports whether two of a's active keys share a bucket.
func collides(a *AWMSketch) bool {
	seen := make(map[int32]bool)
	locs := make([]sketch.Loc, a.cs.Depth())
	for e := range a.active.All() {
		a.cs.Locate(e.Key, locs)
		for _, l := range locs {
			if seen[l.Bucket] {
				return true
			}
			seen[l.Bucket] = true
		}
	}
	return false
}

// TestSyncKeepsAnUpToDateView: Sync, like Close, merges only when an
// update was routed since the installed view was built. After a load and
// after a Sync, it keeps the installed view, pointer-equal, reports no
// merge and allocates nothing; one routed example makes it merge.
func TestSyncKeepsAnUpToDateView(t *testing.T) {
	cfg := Config{Width: 512, Depth: 1, HeapSize: 32, Lambda: 1e-6, Seed: 3}
	data := datagen.RCV1Like(9).Take(301)
	s := NewSharded(cfg, ShardedOptions{Workers: 2, SyncEvery: -1})
	s.UpdateBatch(data[:300])
	var ckpt bytes.Buffer
	if _, err := s.WriteTo(&ckpt); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := LoadSharded(bytes.NewReader(ckpt.Bytes()), nil, nil, ShardedOptions{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	keeps := func(when string) {
		t.Helper()
		v := r.currentView()
		if r.Sync() {
			t.Errorf("%s: Sync merged", when)
		}
		if r.currentView() != v {
			t.Errorf("%s: Sync installed a new view", when)
		}
		if n := testing.AllocsPerRun(20, func() { r.Sync() }); n != 0 {
			t.Errorf("%s: Sync allocated %v times", when, n)
		}
	}
	keeps("after the load")
	r.UpdateBatch(data[300:])
	v := r.currentView()
	if !r.Sync() || r.currentView() == v {
		t.Fatal("Sync after a routed example kept the old view")
	}
	keeps("after a Sync")
}

// TestLiteralMixSharesSnapshotFamily: MixSnapshots under a MixOptions
// literal builds its view on the geometry of the snapshots it mixes,
// sharing their hash family, rather than a family of its own per mix.
func TestLiteralMixSharesSnapshotFamily(t *testing.T) {
	cfg := Config{Width: 256, Depth: 3, HeapSize: 16, Lambda: 1e-6, Seed: 5}
	g := NewGeometry(cfg)
	a, b := g.NewAWMSketch(), g.NewAWMSketch()
	for i, ex := range datagen.RCV1Like(4).Take(200) {
		if i%2 == 0 {
			a.Update(ex.X, ex.Y)
		} else {
			b.Update(ex.X, ex.Y)
		}
	}
	sa, _ := a.ModelSnapshot()
	sb, _ := b.ModelSnapshot()
	sa.Origin, sb.Origin = "a", "b"
	v, err := MixSnapshots([]Snapshot{sa, sb}, MixOptions{Depth: cfg.Depth, Width: cfg.Width, Seed: cfg.Seed, HeapSize: cfg.HeapSize})
	if err != nil {
		t.Fatal(err)
	}
	if v.Sketch().Hashes() != g.Hashes() {
		t.Fatal("a literal mix built a hash family of its own")
	}
}
