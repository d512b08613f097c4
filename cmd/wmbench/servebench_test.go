package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wmsketch/internal/datagen"
)

// TestSendJSONFailsOnShortApply: an update answered 200 but with fewer
// examples applied than it carried is an error, not throughput.
func TestSendJSONFailsOnShortApply(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"applied":0}`)
	}))
	defer hs.Close()

	gen := datagen.RCV1Like(streamSeed)
	in := clientInput{data: gen.Take(1000), probes: gen.Take(probesPerClient)}
	lat := &latencies{update: newLatencyRecorder(), predict: newLatencyRecorder()}
	sent, err := sendJSON(hs.Client(), hs.URL, in, lat)
	if err == nil || !strings.Contains(err.Error(), "applied 0 of 64") {
		t.Fatalf("short apply: err %v, want \"applied 0 of 64\"", err)
	}
	if sent != 0 || lat.update.hist.Count() != 0 {
		t.Fatalf("short apply counted %d examples and %d update latencies, want 0 and 0",
			sent, lat.update.hist.Count())
	}
}

// TestServeBenchLegs runs both legs at a small size, then round-trips the
// report they write through the baseline gate.
func TestServeBenchLegs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "serve.json")
	if err := runServeBench(900, 3, 2, "both", path, ""); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []*legReport{got.JSON, got.Binary} {
		if leg == nil {
			t.Fatalf("report lacks a leg: %+v", got)
		}
		if leg.Examples != 900 || leg.Clients != 3 || leg.Workers != 2 {
			t.Errorf("%s: examples %d clients %d workers %d, want 900, 3, 2",
				leg.Proto, leg.Examples, leg.Clients, leg.Workers)
		}
		if leg.UpdatesPerSec <= 0 || leg.Update.Requests == 0 || leg.Update.P99Ms <= 0 {
			t.Errorf("%s: implausible report: %+v", leg.Proto, leg)
		}
		if leg.SlowestTrace == nil {
			t.Errorf("%s: no slowest_trace at sample rate 1", leg.Proto)
		}
	}
	if got.JSON.Batch != jsonBatch || got.Binary.Batch != binaryBatch || got.Binary.InFlight != inFlight {
		t.Errorf("batch %d/%d in-flight %d, want %d/%d and %d",
			got.JSON.Batch, got.Binary.Batch, got.Binary.InFlight, jsonBatch, binaryBatch, inFlight)
	}
	// 300 examples per client are 5 JSON updates: one predict each.
	if got.JSON.Predict.Requests != 3 {
		t.Errorf("json predicts %d, want 3", got.JSON.Predict.Requests)
	}
	if got.BinarySpeedup <= 0 {
		t.Errorf("no binary_speedup with both legs run")
	}

	if err := checkServeBaseline(got, path); err != nil {
		t.Fatalf("a run fails against its own report: %v", err)
	}
	faster := *got
	jsonLeg, binLeg := *got.JSON, *got.Binary
	jsonLeg.UpdatesPerSec *= 10
	binLeg.UpdatesPerSec *= 10
	faster.JSON, faster.Binary = &jsonLeg, &binLeg
	blob, err := json.Marshal(&faster)
	if err != nil {
		t.Fatal(err)
	}
	fasterPath := filepath.Join(dir, "faster.json")
	if err := os.WriteFile(fasterPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkServeBaseline(got, fasterPath); err == nil {
		t.Fatal("a run 10x below its baseline passed the gate")
	}
}

// TestReadBaseline: the committed BENCH_serve.json carries both legs, and
// a document with neither (such as a single flat leg report) is rejected
// rather than passing the gate vacuously.
func TestReadBaseline(t *testing.T) {
	base, err := readBaseline(filepath.Join("..", "..", "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	if base.JSON == nil || base.Binary == nil || base.JSON.UpdatesPerSec <= 0 || base.Binary.UpdatesPerSec <= 0 {
		t.Fatalf("BENCH_serve.json lacks a leg: %+v", base)
	}
	flat := filepath.Join(t.TempDir(), "flat.json")
	if err := os.WriteFile(flat, []byte(`{"proto":"json","updates_per_sec":55833}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(flat); err == nil {
		t.Fatal("a flat single-leg report was accepted as a baseline")
	}
}
