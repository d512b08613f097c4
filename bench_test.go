// Package wmsketch's root benchmark suite regenerates every table and
// figure in the paper's evaluation as a testing.B benchmark. Each bench
// runs the corresponding harness from internal/experiments at a reduced
// stream length so that `go test -bench=.` completes in minutes; use
// cmd/wmbench for the full-scale runs recorded in EXPERIMENTS.md.
//
// Micro-benchmarks of the core update/query operations live alongside
// their packages (internal/core, internal/sketch, internal/baselines).
package wmsketch_test

import (
	"testing"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/experiments"
	"wmsketch/internal/stream"
)

// benchOpt sizes experiment benchmarks; kept small because each b.N
// iteration replays the entire experiment.
func benchOpt() experiments.Options {
	return experiments.Options{Examples: 10_000, Seed: 42}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opt := benchOpt()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (dataset summary).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates Table 2 (optimal sketch configurations).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3 regenerates Table 3 (recovered PMI pairs).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig3 regenerates Figure 3 (recovery error across datasets).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4 regenerates Figure 4 (recovery error across budgets).
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Figure 5 (recovery error across lambda).
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (online classification error).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (normalized runtime).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (relative-risk distributions).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (weight-risk correlation).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (deltoid recall).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (PMI retrieval vs width/lambda).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkAblation regenerates the design-choice ablation table.
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

// Per-operation benchmarks of the paper's primary contribution at the
// standard budgets, reported as ns per Update (prediction + gradient +
// heap maintenance).

func benchSketchUpdate(b *testing.B, mk func() stream.Learner) {
	b.Helper()
	gen := datagen.RCV1Like(1)
	examples := gen.Take(4096)
	l := mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := examples[i&4095]
		l.Update(ex.X, ex.Y)
	}
}

// BenchmarkAWMSketchUpdate2KB measures the paper's smallest configuration.
func BenchmarkAWMSketchUpdate2KB(b *testing.B) {
	benchSketchUpdate(b, func() stream.Learner {
		return core.NewAWMSketch(core.Config{Width: 256, Depth: 1, HeapSize: 128, Lambda: 1e-6, Seed: 1})
	})
}

// BenchmarkAWMSketchUpdate32KB measures the paper's largest configuration.
func BenchmarkAWMSketchUpdate32KB(b *testing.B) {
	benchSketchUpdate(b, func() stream.Learner {
		return core.NewAWMSketch(core.Config{Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 1})
	})
}

// BenchmarkWMSketchUpdateDepth2 measures the basic WM-Sketch at 2KB.
func BenchmarkWMSketchUpdateDepth2(b *testing.B) {
	benchSketchUpdate(b, func() stream.Learner {
		return core.NewWMSketch(core.Config{Width: 128, Depth: 2, HeapSize: 128, Lambda: 1e-6, Seed: 1})
	})
}

// BenchmarkWMSketchUpdateDepth8 measures depth scaling of the WM-Sketch.
func BenchmarkWMSketchUpdateDepth8(b *testing.B) {
	benchSketchUpdate(b, func() stream.Learner {
		return core.NewWMSketch(core.Config{Width: 128, Depth: 8, HeapSize: 128, Lambda: 1e-6, Seed: 1})
	})
}

// BenchmarkAWMSketchQuery measures point-query latency (active set hit and
// sketch-tail miss mixed).
func BenchmarkAWMSketchQuery(b *testing.B) {
	gen := datagen.RCV1Like(1)
	a := core.NewAWMSketch(core.Config{Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 1})
	for i := 0; i < 20000; i++ {
		ex := gen.Next()
		a.Update(ex.X, ex.Y)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += a.Estimate(uint32(i % 47000))
	}
	_ = sink
}

// Multi-core throughput benchmark of the sharded learner (private shards
// with periodic merge). RunParallel drives Update from GOMAXPROCS
// goroutines, exercising the router and worker queues the way a
// multi-producer ingest pipeline would.

func benchSharded(b *testing.B, opt core.ShardedOptions) {
	b.Helper()
	gen := datagen.RCV1Like(1)
	examples := gen.Take(4096)
	s := core.NewSharded(core.Config{
		Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 1,
	}, opt)
	const batch = 256
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			// One op = one example; route in batches to amortize channel
			// synchronization, the way a real ingest pipeline would.
			if i%batch == 0 {
				lo := i & 4095
				s.UpdateBatch(examples[lo : lo+batch])
			}
			i++
		}
	})
	b.StopTimer()
	s.Close()
}

// BenchmarkShardedUpdate32KB4Workers measures private-shard parallel
// training at the paper's largest configuration.
func BenchmarkShardedUpdate32KB4Workers(b *testing.B) {
	benchSharded(b, core.ShardedOptions{Workers: 4, SyncEvery: -1})
}

// BenchmarkAWMSketchTopK measures TopK retrieval latency.
func BenchmarkAWMSketchTopK(b *testing.B) {
	gen := datagen.RCV1Like(1)
	a := core.NewAWMSketch(core.Config{Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 1})
	for i := 0; i < 20000; i++ {
		ex := gen.Next()
		a.Update(ex.X, ex.Y)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := a.TopK(128); len(got) == 0 {
			b.Fatal("empty TopK")
		}
	}
}
