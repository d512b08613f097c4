package core

import (
	"sync"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// TestShardedSingleWorkerMatchesSequential: with one worker and round-robin
// routing, the private shard sees exactly the sequential stream, so the
// merged view's active-set estimates and TopK must match a sequential
// AWM-Sketch.
func TestShardedSingleWorkerMatchesSequential(t *testing.T) {
	cfg := Config{Width: 512, Depth: 1, HeapSize: 128, Lambda: 1e-6, Seed: 7}
	sh := NewSharded(cfg, ShardedOptions{Workers: 1, SyncEvery: -1})
	seq := NewAWMSketch(cfg)

	gen := datagen.RCV1Like(7)
	for i := 0; i < 5000; i++ {
		ex := gen.Next()
		sh.Update(ex.X, ex.Y)
		seq.Update(ex.X, ex.Y)
	}
	sh.Close()

	seqTop := seq.TopK(cfg.HeapSize)
	shTop := sh.TopK(cfg.HeapSize)
	if len(shTop) != len(seqTop) {
		t.Fatalf("TopK sizes differ: %d vs %d", len(shTop), len(seqTop))
	}
	for i := range seqTop {
		if shTop[i].Index != seqTop[i].Index || shTop[i].Weight != seqTop[i].Weight {
			t.Fatalf("TopK[%d] = %+v, sequential %+v", i, shTop[i], seqTop[i])
		}
	}
	for _, e := range seqTop {
		if got := sh.Estimate(e.Index); got != e.Weight {
			t.Fatalf("Estimate(%d) = %v, sequential %v", e.Index, got, e.Weight)
		}
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
