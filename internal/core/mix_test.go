package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

func mixTestConfig() Config {
	return Config{Width: 512, Depth: 1, HeapSize: 64, Lambda: 1e-6, Seed: 11}
}

func snapshotOf(t *testing.T, l Snapshotter, origin string) Snapshot {
	t.Helper()
	sn, err := l.ModelSnapshot()
	if err != nil {
		t.Fatalf("ModelSnapshot(%s): %v", origin, err)
	}
	sn.Origin = origin
	return sn
}

func requireSameMixed(t *testing.T, a, b *Mixed, probes []uint32, label string) {
	t.Helper()
	for _, i := range probes {
		if ea, eb := a.Estimate(i), b.Estimate(i); ea != eb {
			t.Fatalf("%s: Estimate(%d) = %v vs %v", label, i, ea, eb)
		}
	}
	ta, tb := a.TopK(64), b.TopK(64)
	if len(ta) != len(tb) {
		t.Fatalf("%s: TopK lengths %d vs %d", label, len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("%s: TopK[%d] = %v vs %v", label, i, ta[i], tb[i])
		}
	}
}

// TestMixOrderIndependence is the core replication property: two replicas
// that mix the same set of snapshots must agree bit for bit, no matter in
// which order gossip delivered them. MixSnapshots canonicalizes by Origin,
// so every permutation of the input must produce an identical model.
func TestMixOrderIndependence(t *testing.T) {
	cfg := mixTestConfig()
	opt := MixOptions{Depth: cfg.Depth, Width: cfg.Width, Seed: cfg.Seed, HeapSize: cfg.HeapSize}

	// Three learners with deliberately unequal example counts so the
	// weighted (non-uniform) path is exercised.
	sizes := []int{1500, 700, 2600}
	snaps := make([]Snapshot, len(sizes))
	gen := datagen.RCV1Like(5)
	for i, n := range sizes {
		l := NewAWMSketch(cfg)
		for _, ex := range gen.Take(n) {
			l.Update(ex.X, ex.Y)
		}
		snaps[i] = snapshotOf(t, l, fmt.Sprintf("node-%c", 'a'+i))
	}

	probes := make([]uint32, 200)
	for i := range probes {
		probes[i] = uint32(i * 37)
	}

	ref, err := MixSnapshots(snaps, opt)
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		shuffled := []Snapshot{snaps[p[0]], snaps[p[1]], snaps[p[2]]}
		got, err := MixSnapshots(shuffled, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMixed(t, ref, got, probes, fmt.Sprintf("perm %v", p))
	}
}

// TestMixEqualWeightsMatchSequentialOnSharedStream: learners trained on the
// *same* stream hold identical models, so mixing K of them must reproduce
// the sequential reference model exactly — (x+x)/2 and any power-of-two
// replication is exact in binary floating point. The reference serving
// view is the sequential model's own snapshot mixed alone (for AWM models
// the folded snapshot legitimately differs from live tail queries, because
// folding writes the active set back into shared buckets).
func TestMixEqualWeightsMatchSequentialOnSharedStream(t *testing.T) {
	cfg := mixTestConfig()
	opt := MixOptions{Depth: cfg.Depth, Width: cfg.Width, Seed: cfg.Seed, HeapSize: cfg.HeapSize}
	data := datagen.RCV1Like(9).Take(3000)

	seq := NewAWMSketch(cfg)
	for _, ex := range data {
		seq.Update(ex.X, ex.Y)
	}
	ref, err := MixSnapshots([]Snapshot{snapshotOf(t, seq, "seq")}, opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{2, 4} {
		snaps := make([]Snapshot, k)
		for i := range snaps {
			l := NewAWMSketch(cfg)
			for _, ex := range data {
				l.Update(ex.X, ex.Y)
			}
			snaps[i] = snapshotOf(t, l, fmt.Sprintf("replica-%d", i))
		}
		mixed, err := MixSnapshots(snaps, opt)
		if err != nil {
			t.Fatal(err)
		}
		probes := make([]uint32, 2048)
		for i := range probes {
			probes[i] = uint32(i)
		}
		requireSameMixed(t, ref, mixed, probes, fmt.Sprintf("k=%d", k))
		for _, ex := range data[:100] {
			if got, want := mixed.Predict(ex.X), ref.Predict(ex.X); got != want {
				t.Fatalf("k=%d: Predict diverges: %v vs %v", k, got, want)
			}
		}
		// The exact heavy-key path must also reproduce the sequential
		// model's own active-set weights.
		for _, e := range seq.TopK(16) {
			if got := mixed.Estimate(e.Index); got != e.Weight {
				t.Fatalf("k=%d: heavy Estimate(%d) = %v, sequential %v", k, e.Index, got, e.Weight)
			}
		}
	}
}

// TestMixWeightsAreExampleCounts verifies the weighting semantics: a
// snapshot with 2n steps must count exactly like two identical snapshots
// of n steps each. With power-of-two counts every weight multiply is an
// exact scaling, so 2048·a + 1024·b over total 3072 and (a + a + b)/3 are
// the same bit pattern — which is what "weighted averaging by observed
// example count" means operationally.
func TestMixWeightsAreExampleCounts(t *testing.T) {
	cfg := mixTestConfig()
	opt := MixOptions{Depth: cfg.Depth, Width: cfg.Width, Seed: cfg.Seed, HeapSize: cfg.HeapSize}
	gen := datagen.RCV1Like(13)

	a := NewAWMSketch(cfg)
	for _, ex := range gen.Take(2048) {
		a.Update(ex.X, ex.Y)
	}
	b := NewAWMSketch(cfg)
	for _, ex := range gen.Take(1024) {
		b.Update(ex.X, ex.Y)
	}

	snapA := snapshotOf(t, a, "a")
	snapB := snapshotOf(t, b, "b")

	weighted, err := MixSnapshots([]Snapshot{snapA, snapB}, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Split a's mass into two half-weight copies under distinct origins that
	// keep the canonical order (a1, a2, b).
	halfA1, halfA2 := snapA, snapA
	halfA1.Origin, halfA1.Steps = "a1", 1024
	halfA2.Origin, halfA2.Steps = "a2", 1024
	duplicated, err := MixSnapshots([]Snapshot{halfA1, halfA2, snapB}, opt)
	if err != nil {
		t.Fatal(err)
	}
	probes := make([]uint32, 500)
	for i := range probes {
		probes[i] = uint32(i * 13)
	}
	requireSameMixed(t, weighted, duplicated, probes, "2n vs n+n")
}

// TestMixSkipsEmptyAndZeroStepSnapshots: idle nodes must not dilute the
// mix, and mixing nothing must be the well-defined zero model.
func TestMixSkipsEmptyAndZeroStepSnapshots(t *testing.T) {
	cfg := mixTestConfig()
	opt := MixOptions{Depth: cfg.Depth, Width: cfg.Width, Seed: cfg.Seed, HeapSize: cfg.HeapSize}

	l := NewAWMSketch(cfg)
	for _, ex := range datagen.RCV1Like(21).Take(1000) {
		l.Update(ex.X, ex.Y)
	}
	trained := snapshotOf(t, l, "trained")
	idle := snapshotOf(t, NewAWMSketch(cfg), "idle")

	alone, err := MixSnapshots([]Snapshot{trained}, opt)
	if err != nil {
		t.Fatal(err)
	}
	withIdle, err := MixSnapshots([]Snapshot{trained, idle, {Origin: "nil-cs", Steps: 5}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	probes := []uint32{0, 1, 17, 400, 999}
	requireSameMixed(t, alone, withIdle, probes, "idle dilution")

	empty, err := MixSnapshots(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if est := empty.Estimate(rng.Uint32()); est != 0 {
			t.Fatalf("empty mix estimates %v, want 0", est)
		}
	}
	if p := empty.Predict(stream.Vector{{Index: 3, Value: 1}}); p != 0 {
		t.Fatalf("empty mix predicts %v, want 0", p)
	}
}

// TestMixRejectsIncompatibleGeometry: a snapshot with a different seed or
// shape cannot be parameter-mixed and must produce an error, not silent
// garbage.
func TestMixRejectsIncompatibleGeometry(t *testing.T) {
	cfg := mixTestConfig()
	opt := MixOptions{Depth: cfg.Depth, Width: cfg.Width, Seed: cfg.Seed, HeapSize: cfg.HeapSize}

	good := NewAWMSketch(cfg)
	badCfg := cfg
	badCfg.Seed = 999
	bad := NewAWMSketch(badCfg)
	ex := datagen.RCV1Like(2).Take(50)
	for _, e := range ex {
		good.Update(e.X, e.Y)
		bad.Update(e.X, e.Y)
	}
	if _, err := MixSnapshots([]Snapshot{snapshotOf(t, good, "good"), snapshotOf(t, bad, "bad")}, opt); err == nil {
		t.Fatal("seed mismatch not rejected")
	}
}

// TestMixedViewPredictsNoWorseThanItsNodes: three AWM-Sketches at
// wmserve's default geometry (4096×1, heap 2048) train on round-robin
// thirds of an RCV1-like stream, as the gossip benchmark's nodes do, and
// the view mixed from their snapshots must classify the next 8192
// examples within epsilon of the worst node's own error, after 1 and
// after 8 passes, on each of 11 seeds. Read from the merged sketch, where
// every active weight collides with the others, the heavy weights make
// the view up to 0.134 worse than its worst node at 8 passes (seed 310:
// 0.4031 against 0.2690).
func TestMixedViewPredictsNoWorseThanItsNodes(t *testing.T) {
	const (
		nodes   = 3
		skip    = nodes * 4096
		perNode = 16384
		heldout = 8192
		epsilon = 0.01
	)
	g := NewGeometry(Config{Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 42})
	errorRate := func(predict func(stream.Vector) float64, test []stream.Example) float64 {
		wrong := 0
		for _, ex := range test {
			if predict(ex.X)*float64(ex.Y) <= 0 {
				wrong++
			}
		}
		return float64(wrong) / float64(len(test))
	}
	for _, seed := range []int64{7, 301, 302, 303, 304, 305, 306, 307, 308, 309, 310} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			gen := datagen.RCV1Like(seed)
			gen.Take(skip)
			train, test := gen.Take(nodes*perNode), gen.Take(heldout)
			models := make([]*AWMSketch, nodes)
			for i := range models {
				models[i] = g.NewAWMSketch()
			}
			for pass := 1; pass <= 8; pass++ {
				for i, ex := range train {
					models[i%nodes].Update(ex.X, ex.Y)
				}
				if pass != 1 && pass != 8 {
					continue
				}
				snaps := make([]Snapshot, nodes)
				worst := 0.0
				for i, m := range models {
					snaps[i] = snapshotOf(t, m, fmt.Sprint(i))
					worst = max(worst, errorRate(m.Predict, test))
				}
				view, err := MixSnapshots(snaps, g.Mix())
				if err != nil {
					t.Fatal(err)
				}
				got := errorRate(view.Predict, test)
				t.Logf("%d passes: view %.4f, worst node %.4f", pass, got, worst)
				if got > worst+epsilon {
					t.Errorf("%d passes: the view's error %.4f exceeds the worst node's %.4f by more than %g",
						pass, got, worst, epsilon)
				}
			}
		})
	}
}

// TestShardedSnapshotListsItsViewsHeavyUnion: a sharded learner's snapshot
// lists every mixed heavy weight of its view, past HeapSize, with the
// view's weights; past maxHeapSize keys, the most a gossip decoder takes,
// it keeps the heaviest.
func TestShardedSnapshotListsItsViewsHeavyUnion(t *testing.T) {
	for _, heap := range []int{256, maxHeapSize} {
		t.Run(fmt.Sprint(heap), func(t *testing.T) {
			s := NewSharded(Config{Width: 1024, Depth: 1, HeapSize: heap, Lambda: 1e-6, Seed: 7},
				ShardedOptions{Workers: 2, SyncEvery: -1})
			defer s.Close()
			// Each example brings two features no other example has, so
			// each shard's active set fills with keys of its own.
			batch := make([]stream.Example, 2*heap)
			for i := range batch {
				k := uint32(2 * i)
				batch[i] = stream.Example{X: stream.Vector{{Index: k, Value: 1}, {Index: k + 1, Value: 0.5}}, Y: 1 - 2*(i%2)}
			}
			s.UpdateBatch(batch)
			sn, err := s.ModelSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			exact := s.currentView().exact
			if len(exact) <= heap {
				t.Fatalf("the view holds %d heavy weights, want more than the heap's %d", len(exact), heap)
			}
			if want := min(len(exact), maxHeapSize); len(sn.Heavy) != want {
				t.Fatalf("the snapshot lists %d heavy weights, want %d of the view's %d", len(sn.Heavy), want, len(exact))
			}
			listed := make(map[uint32]bool, len(sn.Heavy))
			lightest := math.Inf(1)
			for _, e := range sn.Heavy {
				if w, ok := exact[e.Index]; !ok || w != e.Weight || listed[e.Index] {
					t.Fatalf("listed %v: the view holds %v (%v), listed before: %v", e, w, ok, listed[e.Index])
				}
				listed[e.Index] = true
				lightest = min(lightest, math.Abs(e.Weight))
			}
			for k, w := range exact {
				if !listed[k] && math.Abs(w) > lightest {
					t.Fatalf("key %d (weight %v) is left out, but a key of |weight| %v is listed", k, w, lightest)
				}
			}
		})
	}
}
