package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// Throughput mode measures raw update throughput of the paper's primary
// contribution on the current hardware: single-thread AWM-/WM-Sketch at
// the standard 2 KB and 32 KB budgets and at perfbench's ingest geometry,
// plus the sharded parallel learner across worker counts. Results go to
// stdout and, with -json, to a machine-readable file for the perf
// trajectory (`make bench-json` writes BENCH_throughput.json).

// throughputResult is one measurement row.
type throughputResult struct {
	Name          string  `json:"name"`
	Workers       int     `json:"workers"`
	Examples      int     `json:"examples"`
	NsPerUpdate   float64 `json:"ns_per_update"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
}

// throughputReport is the -json document.
type throughputReport struct {
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Timestamp  string             `json:"timestamp"`
	Results    []throughputResult `json:"results"`
}

func runThroughput(examples, workers int, jsonPath string) {
	if examples <= 0 {
		examples = 200_000
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	gen := datagen.RCV1Like(1)
	data := gen.Take(examples)

	cfg2KB := core.Config{Width: 256, Depth: 1, HeapSize: 128, Lambda: 1e-6, Seed: 1}
	cfg32KB := core.Config{Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 1}
	cfgWM := core.Config{Width: 2048, Depth: 2, HeapSize: 128, Lambda: 1e-6, Seed: 1}

	report := throughputReport{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	add := func(name string, w int, fn func() int) {
		start := time.Now()
		n := fn()
		elapsed := time.Since(start)
		ns := float64(elapsed.Nanoseconds()) / float64(n)
		r := throughputResult{
			Name: name, Workers: w, Examples: n,
			NsPerUpdate:   ns,
			UpdatesPerSec: 1e9 / ns,
		}
		report.Results = append(report.Results, r)
		fmt.Printf("%-28s workers=%-2d %12.1f ns/update %14.0f updates/sec\n",
			r.Name, r.Workers, r.NsPerUpdate, r.UpdatesPerSec)
	}

	single := func(l stream.Learner) func() int {
		return func() int {
			for _, ex := range data {
				l.Update(ex.X, ex.Y)
			}
			return len(data)
		}
	}
	add("awm_update_2kb_single", 1, single(core.NewAWMSketch(cfg2KB)))
	add("awm_update_32kb_single", 1, single(core.NewAWMSketch(cfg32KB)))
	add("wm_update_depth2_single", 1, single(core.NewWMSketch(cfgWM)))

	// The learner of perfbench's ingest workload (3×2^17, heap 2048, a
	// URL-like stream), warm-started on 32768 examples as the workload's
	// checkpoint is, then timed over the same number of updates as the rows
	// above, cycling through at most 32768 fresh examples to bound memory.
	urls := datagen.URLLike(1)
	ingest := core.NewAWMSketch(core.Config{Width: 1 << 17, Depth: 3, HeapSize: 2048, Lambda: 1e-6, Seed: 42})
	for _, ex := range urls.Take(32768) {
		ingest.Update(ex.X, ex.Y)
	}
	pool := urls.Take(min(examples, 32768))
	add("awm_update_ingest_single", 1, func() int {
		for i := 0; i < examples; i++ {
			ex := pool[i%len(pool)]
			ingest.Update(ex.X, ex.Y)
		}
		return examples
	})

	// The parallel learner at 1..workers, batch-routed (256 examples per
	// batch) the way a real ingest pipeline would feed it.
	const batch = 256
	parallel := func(w int) func() int {
		return func() int {
			s := core.NewSharded(cfg32KB, core.ShardedOptions{Workers: w, SyncEvery: -1})
			n := 0
			for n+batch <= len(data) {
				s.UpdateBatch(data[n : n+batch])
				n += batch
			}
			s.Close() // includes queue drain, so the clock covers all updates
			return n
		}
	}
	// Sweep powers of two, then the requested maximum itself when it is not
	// a power of two (6- and 12-core machines deserve their own row).
	var sweep []int
	for w := 1; w <= workers; w *= 2 {
		sweep = append(sweep, w)
	}
	if last := sweep[len(sweep)-1]; last != workers {
		sweep = append(sweep, workers)
	}
	for _, w := range sweep {
		add(fmt.Sprintf("sharded_awm_32kb_w%d", w), w, parallel(w))
	}

	if jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(jsonPath, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
}
