package core

import (
	"bytes"
	"sync"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

func TestConcurrentParallelUpdatesAndQueries(t *testing.T) {
	c := NewConcurrent(NewAWMSketch(Config{
		Width: 512, Depth: 1, HeapSize: 64, Lambda: 1e-6, Seed: 31,
	}))
	gens := make([]*planted, 4)
	for i := range gens {
		gens[i] = newPlanted(500, 5, defaultPlantedWeights(), int64(400+i))
	}
	var wg sync.WaitGroup
	// Two writer goroutines (one per example, one in batches), two query
	// goroutines.
	wg.Add(2)
	go func(gen *planted) {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			ex := gen.next()
			c.Update(ex.X, ex.Y)
		}
	}(gens[0])
	go func(gen *planted) {
		defer wg.Done()
		batch := make([]stream.Example, 10)
		for i := 0; i < 3000; i += len(batch) {
			for j := range batch {
				batch[j] = gen.next()
			}
			c.UpdateBatch(batch)
		}
	}(gens[1])
	for g := 2; g < 4; g++ {
		wg.Add(1)
		go func(gen *planted) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				ex := gen.next()
				_ = c.Predict(ex.X)
				_ = c.Estimate(ex.X[0].Index)
				if i%100 == 0 {
					_ = c.TopK(8)
				}
			}
		}(gens[g])
	}
	wg.Wait()
	// The model must have learned the planted signs despite interleaving.
	correct := 0
	for i, want := range defaultPlantedWeights() {
		if c.Estimate(i)*want > 0 {
			correct++
		}
	}
	if correct < 4 {
		t.Fatalf("only %d/5 planted signs correct after concurrent training", correct)
	}
	if c.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes must pass through")
	}
}

func TestConcurrentNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil learner")
		}
	}()
	NewConcurrent(nil)
}

func TestConcurrentIsDropInLearner(t *testing.T) {
	var l stream.Learner = NewConcurrent(NewAWMSketch(Config{
		Width: 64, Depth: 1, HeapSize: 8, Seed: 33,
	}))
	l.Update(stream.OneHot(1), 1)
	if l.Estimate(1) == 0 {
		t.Fatal("wrapped update lost")
	}
}

// TestConcurrentUpdateBatchMatchesSequential: UpdateBatch applies a batch in
// order, so the wrapped model must checkpoint byte-identically to a bare
// one fed the same examples one Update at a time; Sync and Close must not
// disturb it.
func TestConcurrentUpdateBatchMatchesSequential(t *testing.T) {
	cfg := Config{Width: 256, Depth: 2, HeapSize: 32, Lambda: 1e-6, Seed: 17}
	c, bare := NewConcurrent(NewAWMSketch(cfg)), NewAWMSketch(cfg)
	gen := datagen.RCV1Like(17)
	for i := 0; i < 50; i++ {
		batch := gen.Take(1 + i%9)
		c.UpdateBatch(batch)
		for _, ex := range batch {
			bare.Update(ex.X, ex.Y)
		}
	}
	c.Sync()
	c.Close()
	var got, want bytes.Buffer
	if _, err := c.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("UpdateBatch checkpoint differs from sequential Updates")
	}
	if c.Steps() != bare.Steps() || c.Workers() != 0 {
		t.Fatalf("steps %d (want %d), workers %d (want 0)", c.Steps(), bare.Steps(), c.Workers())
	}
}
