package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
)

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and requires a correct result that carries exactly its metric
// set, with every listener closed and no goroutine left behind.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range []string{"ingest", "mixed", "gossip"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, traced), func(t *testing.T) {
				p := params{workload: name, seed: 7, seconds: 1, trace: traced, commit: "test", outdir: t.TempDir(), size: tinySize}
				rep, err := run(p, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				res := rep.final(traced)
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, rep.msgs)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", d.name, v, ok, d.unit)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// the metric tables the runs report.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	for _, set := range []struct {
		name string
		doc  []metric
		code []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(set.doc) != len(set.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", set.name, len(set.doc), len(set.code))
			continue
		}
		for i, m := range set.doc {
			if m.Name != set.code[i].name || m.Unit != set.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					set.name, i, m.Name, m.Unit, set.code[i].name, set.code[i].unit)
			}
		}
	}
}
