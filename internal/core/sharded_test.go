package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// TestShardedSingleWorkerMatchesSequential: with one worker, the private
// shard sees exactly the sequential stream, so the view must answer as a
// sequential AWM-Sketch does: after a Sync, after more updates and Close,
// and after a load of its checkpoint. Estimates agree on every feature id
// below 2^15, bit for bit at depth 1; at depth 3 the view folds the decay
// scale into the buckets before the median's √3 and the learner after
// it, so they agree to 1e-15 relative. Predictions agree to 1e-9 and TopK
// exactly.
func TestShardedSingleWorkerMatchesSequential(t *testing.T) {
	for _, depth := range []int{1, 3} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			cfg := Config{Width: 1024, Depth: depth, HeapSize: 256, Lambda: 1e-5, Seed: 7}
			gen := datagen.RCV1Like(7)
			data, heldOut := gen.Take(6000), gen.Take(2000)
			sh := NewSharded(cfg, ShardedOptions{Workers: 1, SyncEvery: -1})
			awm := NewAWMSketch(cfg)
			feed := func(part []stream.Example) {
				for i := 0; i < len(part); i += 100 {
					batch := part[i:min(i+100, len(part))]
					sh.UpdateBatch(batch)
					for _, ex := range batch {
						awm.Update(ex.X, ex.Y)
					}
				}
			}
			check := func(when string, sh *Sharded) {
				t.Helper()
				estimates := 0
				for i := uint32(0); i < 1<<15; i++ {
					got, want := sh.Estimate(i), awm.Estimate(i)
					if depth == 1 && math.Float64bits(got) != math.Float64bits(want) ||
						math.Abs(got-want) > 1e-15*math.Abs(want) {
						estimates++
					}
				}
				predicts := 0
				for _, ex := range heldOut {
					if math.Abs(sh.Predict(ex.X)-awm.Predict(ex.X)) > 1e-9 {
						predicts++
					}
				}
				if estimates > 0 || predicts > 0 {
					t.Errorf("%s: %d of %d estimates and %d of %d predictions differ from the sequential AWM's",
						when, estimates, 1<<15, predicts, len(heldOut))
				}
				if got, want := sh.TopK(cfg.HeapSize), awm.TopK(cfg.HeapSize); !slices.Equal(got, want) {
					t.Errorf("%s: TopK differs from the sequential AWM's", when)
				}
			}
			feed(data[:3000])
			sh.Sync()
			check("after a Sync", sh)
			feed(data[3000:])
			sh.Close()
			check("after Close", sh)
			var blob bytes.Buffer
			if _, err := sh.WriteTo(&blob); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadSharded(&blob, nil, nil, ShardedOptions{SyncEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			check("after LoadSharded", loaded)
		})
	}
}

// TestShardedMatchesSequentialTopK: parameter mixing over 4 sub-streams is
// an approximation of the sequential model, but on the same stream the two
// must largely agree on which features are heavy.
func TestShardedMatchesSequentialTopK(t *testing.T) {
	cfg := Config{Width: 4096, Depth: 1, HeapSize: 256, Lambda: 1e-6, Seed: 3}
	sh := NewSharded(cfg, ShardedOptions{Workers: 4, SyncEvery: -1})
	seq := NewAWMSketch(cfg)
	gen := datagen.RCV1Like(3)
	for i := 0; i < 40000; i++ {
		ex := gen.Next()
		sh.Update(ex.X, ex.Y)
		seq.Update(ex.X, ex.Y)
	}
	sh.Close()

	seqTop := seq.TopK(32)
	inSh := map[uint32]bool{}
	for _, e := range sh.TopK(64) {
		inSh[e.Index] = true
	}
	overlap := 0
	for _, e := range seqTop {
		if inSh[e.Index] {
			overlap++
		}
	}
	if overlap < 20 {
		t.Fatalf("only %d/32 sequential top features in sharded TopK(64)", overlap)
	}
	// Mixed estimates of the sequential model's heavy features must agree
	// in sign and rough magnitude.
	for _, e := range seqTop[:8] {
		got := sh.Estimate(e.Index)
		if got*e.Weight <= 0 {
			t.Fatalf("Estimate(%d) = %v, sequential %v (sign flip)", e.Index, got, e.Weight)
		}
	}
}

// TestShardedConcurrentUpdatesAndQueries hammers Update, Estimate, TopK,
// Predict, and Sync from many goroutines; run under -race this is the
// safety test for the whole sharded path.
func TestShardedConcurrentUpdatesAndQueries(t *testing.T) {
	cfg := Config{Width: 512, Depth: 1, HeapSize: 64, Lambda: 1e-6, Seed: 31}
	sh := NewSharded(cfg, ShardedOptions{Workers: 4, SyncEvery: 500})
	gen := datagen.RCV1Like(31)
	examples := gen.Take(2048)

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(examples); i += 4 {
				sh.Update(examples[i].X, examples[i].Y)
			}
		}(p)
	}
	stop := make(chan struct{})
	var qg sync.WaitGroup
	for q := 0; q < 3; q++ {
		qg.Add(1)
		go func(q int) {
			defer qg.Done()
			var sink float64
			for i := 0; ; i++ {
				select {
				case <-stop:
					_ = sink
					return
				default:
				}
				switch i % 3 {
				case 0:
					sink += sh.Estimate(uint32(i % 4096))
				case 1:
					sink += float64(len(sh.TopK(16)))
				case 2:
					sink += sh.Predict(examples[i%len(examples)].X)
				}
				if i%100 == 0 {
					sh.Sync()
				}
			}
		}(q)
	}
	wg.Wait()
	close(stop)
	qg.Wait()
	sh.Close()
	if got := sh.Steps(); got != int64(len(examples)) {
		t.Fatalf("routed %d updates, want %d", got, len(examples))
	}
}

func TestShardedUpdateAfterClosePanics(t *testing.T) {
	sh := NewSharded(Config{Width: 64, Depth: 1, HeapSize: 8, Seed: 1}, ShardedOptions{Workers: 1})
	sh.Close()
	sh.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Update after Close")
		}
	}()
	sh.Update(stream.OneHot(1), 1)
}

// TestShardedIsDropInLearner checks interface conformance and that memory
// accounting follows the cost model.
func TestShardedIsDropInLearner(t *testing.T) {
	var l stream.Learner = NewSharded(
		Config{Width: 256, Depth: 1, HeapSize: 32, Seed: 2},
		ShardedOptions{Workers: 2})
	sh := l.(*Sharded)
	defer sh.Close()
	l.Update(stream.OneHot(5), 1)
	// 2 shards × (sketch 4·256 + heap 8·32).
	if got, want := l.MemoryBytes(), 2*(4*256+8*32); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}

// TestShardedQueuedMessages: QueuedMessages counts the messages routed to
// the workers and not yet taken up, and reads 0 once they have drained.
func TestShardedQueuedMessages(t *testing.T) {
	s := NewSharded(Config{Width: 64, Depth: 1, HeapSize: 8, Seed: 1},
		ShardedOptions{Workers: 2, SyncEvery: -1})
	defer s.Close()
	// Park both workers, so every message routed from here on stays queued.
	ready, release := make(chan struct{}), make(chan struct{})
	for _, w := range s.workers {
		w.in <- shardMsg{freeze: &shardFreeze{ready: ready, release: release}}
	}
	for range s.workers {
		<-ready
	}
	if got := s.QueuedMessages(); got != 0 {
		t.Fatalf("QueuedMessages = %d with the workers parked and nothing routed", got)
	}
	gen := datagen.RCV1Like(1)
	for i := 0; i < 3; i++ {
		s.UpdateBatch(gen.Take(4)) // one chunk of 2 examples per worker
	}
	ex := gen.Next()
	s.Update(ex.X, ex.Y)
	if got := s.QueuedMessages(); got != 7 {
		t.Fatalf("QueuedMessages = %d, want 7 (3 batches to 2 workers, 1 example)", got)
	}
	close(release)
	s.Sync()
	if got := s.QueuedMessages(); got != 0 {
		t.Fatalf("QueuedMessages = %d after Sync, want 0", got)
	}
}
