// Command perfbench is the repository benchmark. It drives the real
// wmserve server (internal/server) in process over loopback with one of
// three workloads and prints every metric with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is repeated with benchmark-side spans around every client call, the
// inputs are replayed through each layer's public functions, and the
// metrics are the per-layer ones (BENCHMARK.json lists both sets). The
// span dump and the per-layer report are written under -outdir.
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var p params
	var traceFlag int
	flag.StringVar(&p.workload, "workload", "", "workload: ingest, mixed or gossip")
	flag.Int64Var(&p.seed, "seed", 1, "input seed")
	flag.Float64Var(&p.seconds, "seconds", 15, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&p.commit, "commit", "unknown", "commit stamp for the result")
	flag.StringVar(&p.outdir, "outdir", filepath.Join(".bench_build", "perfbench"), "directory for span dumps and temporary checkpoints")
	flag.Parse()
	p.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("-trace must be 0 or 1, got %d", traceFlag)
	}
	if _, ok := workloads[p.workload]; !ok {
		fatalf("unknown workload %q (want ingest, mixed or gossip)", p.workload)
	}
	if p.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	p.size = fullSize

	// A run that hangs must still end, without a result, well inside the
	// three minutes a run may take.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s")
		os.Exit(3)
	})
	rep, err := run(p, os.Stdout)
	if err != nil {
		fatalf("%s: %v", p.workload, err)
	}
	line, err := json.Marshal(rep.final(p.trace))
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !rep.correct() {
		os.Exit(1)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// params is one invocation.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	commit   string
	outdir   string
	size     sizes
}

// run executes one workload invocation, printing the human-readable report
// to w. An error means the run could not be carried out at all (no result
// is printed); failed checks are counted in the report instead.
func run(p params, w io.Writer) (*report, error) {
	if err := os.MkdirAll(p.outdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(p.outdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	stamp := fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d nproc=%d go=%s commit=%s",
		p.workload, p.seed, p.seconds, p.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), p.commit)
	fmt.Fprintln(w, "stamp", stamp)

	goroutines := runtime.NumGoroutine()
	rep := newReport()
	wl := workloads[p.workload]
	in, err := wl.prepare(p, tmp)
	if err != nil {
		return nil, fmt.Errorf("prepare inputs: %w", err)
	}
	rep.extra("bench.datagen_s", "s", in.datagenS)

	if !p.trace {
		if err := wl.measure(p, in, nil, rep); err != nil {
			return nil, err
		}
	} else {
		// The untraced and traced passes share the run's time, half each,
		// so the overhead share compares like with like.
		half := p
		half.seconds = p.seconds / 2
		plain := newReport()
		if err := wl.measure(half, in, nil, plain); err != nil {
			return nil, err
		}
		tr := newTracer(fmt.Sprintf("%s-%d-%d", p.workload, p.seed, time.Now().UnixNano()))
		traced := newReport()
		if err := wl.measure(half, in, tr, traced); err != nil {
			return nil, err
		}
		rep.merge("untraced", plain)
		rep.merge("traced", traced)
		overhead := plain.value("ingest_eps")/traced.value("ingest_eps") - 1
		rep.layer("bench.trace_overhead_share", "fraction", overhead)
		rep.layer("bench.datagen_s", "s", in.datagenS)
		if err := replayLayers(p, in, rep); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		dump := filepath.Join(p.outdir, fmt.Sprintf("spans-%s-seed%d.json", p.workload, p.seed))
		if err := tr.dump(dump, stamp, rep); err != nil {
			return nil, fmt.Errorf("span dump: %w", err)
		}
		tr.printSelf(w)
		fmt.Fprintln(w, "span dump", dump)
		printLadder(w, rep)
	}
	if leaked := waitGoroutines(goroutines, 5*time.Second); leaked > 0 {
		rep.failf("%d goroutines still running after teardown", leaked)
	}
	rep.complete(p.trace)
	rep.print(w, p.trace)
	return rep, nil
}

// waitGoroutines waits until the goroutine count is back to base and
// returns how many remain above it.
func waitGoroutines(base int, limit time.Duration) int {
	deadline := time.Now().Add(limit)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) {
			if n > 0 {
				buf := make([]byte, 1<<16)
				buf = buf[:runtime.Stack(buf, true)]
				fmt.Fprintf(os.Stderr, "leaked goroutines:\n%s\n", strings.TrimSpace(string(buf)))
			}
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
