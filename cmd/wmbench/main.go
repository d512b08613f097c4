// Command wmbench regenerates the paper's tables and figures, and measures
// raw update throughput on the current hardware.
//
// Usage:
//
//	wmbench -exp fig3            # one experiment at full scale
//	wmbench -exp all -quick      # everything, test-sized streams
//	wmbench -list                # enumerate experiment ids
//	wmbench -throughput          # single- and multi-core updates/sec
//	wmbench -throughput -json BENCH_throughput.json
//	wmbench -serve-bench -workers 4 -json BENCH_serve.json   # JSON + binary legs
//	wmbench -serve-bench -proto binary                       # one protocol only
//	wmbench -serve-bench -serve-baseline BENCH_serve.json    # tier-2 regression gate
//
// Each experiment id corresponds to a table or figure in "Sketching Linear
// Classifiers over Data Streams" (SIGMOD 2018); see DESIGN.md for the
// per-experiment index, EXPERIMENTS.md for paper-vs-measured results, and
// PERFORMANCE.md for the hot-path design behind the throughput numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wmsketch/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id to run, or 'all'")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		quick      = flag.Bool("quick", false, "use test-sized streams")
		examples   = flag.Int("n", 0, "override stream length (0 = preset)")
		seed       = flag.Int64("seed", 42, "base random seed")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		throughput = flag.Bool("throughput", false, "measure update throughput instead of running experiments")
		serveBench = flag.Bool("serve-bench", false, "measure serving throughput (in-process wmserve, JSON and binary clients) instead of running experiments")
		clients    = flag.Int("clients", 4, "concurrent clients for -serve-bench")
		workers    = flag.Int("workers", 0, "max worker count for -throughput / sharded workers for -serve-bench (0 = GOMAXPROCS)")
		proto      = flag.String("proto", "both", "protocols for -serve-bench: json, binary, or both")
		baseline   = flag.String("serve-baseline", "", "compare -serve-bench updates/sec against this recorded BENCH_serve.json; fail if >25% below")
		jsonPath   = flag.String("json", "", "write -throughput/-serve-bench results to this JSON file")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *throughput {
		runThroughput(*examples, *workers, *jsonPath)
		return
	}
	if *serveBench {
		if err := runServeBench(*examples, *clients, *workers, *proto, *jsonPath, *baseline); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: wmbench -exp <id>|all [-quick] [-n N] [-seed S]")
		fmt.Fprintln(os.Stderr, "       wmbench -throughput [-workers N] [-n N] [-json FILE]")
		fmt.Fprintln(os.Stderr, "known experiments:", experiments.IDs())
		os.Exit(2)
	}

	opt := experiments.Full()
	if *quick {
		opt = experiments.Quick()
	}
	if *examples > 0 {
		opt.Examples = *examples
	}
	opt.Seed = *seed

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		tab, err := experiments.Run(id, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Println(tab)
			fmt.Printf("(%s completed in %s with %d examples)\n\n", id,
				time.Since(start).Round(time.Millisecond), opt.Examples)
		}
	}
}
