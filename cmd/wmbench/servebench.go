package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/obs"
	"wmsketch/internal/server"
	"wmsketch/internal/stream"
	"wmsketch/internal/trace"
	"wmsketch/internal/wire"
)

// Serve-bench mode measures the full serving path — transport, codec,
// batching, the sharded learner, snapshot refresh — rather than the bare
// learner that -throughput measures. Each leg boots an in-process wmserve
// on a loopback listener and drives it with concurrent clients over
// pre-generated classification streams, once per protocol: the HTTP/JSON
// API and the binary hot protocol (SERVING.md "Binary protocol") are
// recorded side by side so BENCH_serve.json documents what the binary path
// buys (`make bench-serve` writes both legs plus the speedup ratio).

// The workload both legs replay. Client c sends datagen.RCV1Like(streamSeed
// + c) and predicts on the probesPerClient examples drawn after it. The
// binary protocol is built for large batches (one frame, one decode, one
// backend hand-off), so its leg runs them; each leg's report records its
// own batch size, so the asymmetry is visible in BENCH_serve.json rather
// than hidden.
const (
	protoJSON   = "json"
	protoBinary = "binary"

	jsonBatch       = 64  // examples per POST /v1/update
	binaryBatch     = 512 // examples per binary update frame
	inFlight        = 32  // binary update frames per flush-and-drain burst
	predictEvery    = 4   // one predict per this many update requests
	probesPerClient = 64
	streamSeed      = 1
)

// serveBenchReport is the combined two-protocol report document written to
// BENCH_serve.json. Either leg may be absent when -proto selects one.
type serveBenchReport struct {
	JSON   *legReport `json:"json,omitempty"`
	Binary *legReport `json:"binary,omitempty"`
	// BinarySpeedup is binary updates/sec over JSON updates/sec measured in
	// this same run (present only when both legs ran).
	BinarySpeedup float64 `json:"binary_speedup,omitempty"`
}

// legReport is one protocol's result.
type legReport struct {
	GOOS          string         `json:"goos"`
	GOARCH        string         `json:"goarch"`
	GOMAXPROCS    int            `json:"gomaxprocs"`
	Timestamp     string         `json:"timestamp"`
	Backend       string         `json:"backend"`
	Workers       int            `json:"workers,omitempty"`
	Proto         string         `json:"proto"`
	InFlight      int            `json:"in_flight,omitempty"`
	Clients       int            `json:"clients"`
	Batch         int            `json:"batch"`
	Examples      int            `json:"examples"`
	WallSeconds   float64        `json:"wall_seconds"`
	UpdatesPerSec float64        `json:"updates_per_sec"`
	Update        latencySummary `json:"update"`
	Predict       latencySummary `json:"predict"`
	// LatencySource records how the percentiles were computed, so readers of
	// archived reports know the quantiles are bucket-interpolated.
	LatencySource string `json:"latency_source"`
	// SlowestTrace is the worst sampled span tree from the run's flight
	// recorder: the latency table says how slow the tail was, this says
	// where the time went. CI archives it with the report.
	SlowestTrace *trace.TraceJSON `json:"slowest_trace,omitempty"`
}

// latencySummary aggregates one endpoint's request latencies.
type latencySummary struct {
	Requests int     `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// latencyBuckets spans 0.1ms to ~21s in 1.25× steps: every quantile the
// summary reports carries at most 25% relative bucket error, independent
// of how many requests the run makes (HDR-histogram-style fixed memory).
var latencyBuckets = obs.ExponentialBuckets(0.0001, 1.25, 56)

// latencyRecorder aggregates one endpoint's client-observed latencies.
// All clients share one recorder: the histogram is internally atomic, so
// recording never serializes the client goroutines, and memory stays
// O(buckets) no matter how many requests the run makes. The maximum is
// tracked exactly (a bucket bound would understate the worst case).
type latencyRecorder struct {
	hist  *obs.Histogram
	maxNs atomic.Int64
}

func newLatencyRecorder() *latencyRecorder {
	return &latencyRecorder{hist: obs.NewHistogram(latencyBuckets)}
}

func (l *latencyRecorder) observe(d time.Duration) {
	l.hist.ObserveDuration(d)
	for {
		cur := l.maxNs.Load()
		if int64(d) <= cur || l.maxNs.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

func (l *latencyRecorder) summary() latencySummary {
	n := l.hist.Count()
	if n == 0 {
		return latencySummary{}
	}
	// Quantile interpolates within a bucket and can overshoot the true
	// maximum near the tail; the recorder knows the exact max, so clamp.
	maxMs := float64(l.maxNs.Load()) / 1e6
	ms := func(q float64) float64 { return math.Min(l.hist.Quantile(q)*1e3, maxMs) }
	return latencySummary{
		Requests: int(n),
		P50Ms:    ms(0.50),
		P95Ms:    ms(0.95),
		P99Ms:    ms(0.99),
		MaxMs:    maxMs,
	}
}

// latencies are a leg's recorders, shared by all its clients.
type latencies struct{ update, predict *latencyRecorder }

// clientInput is one client's pre-generated workload.
type clientInput struct {
	data   []stream.Example
	probes []stream.Example
}

// predictsDue issues the predicts owed after reqs update requests, one per
// predictEvery, advancing done; predict returns the latency to record.
func (in clientInput) predictsDue(reqs int, done *int, lat *latencyRecorder, predict func(stream.Vector) (time.Duration, error)) error {
	for ; (*done+1)*predictEvery <= reqs; *done++ {
		d, err := predict(in.probes[*done%len(in.probes)].X)
		if err != nil {
			return err
		}
		lat.observe(d)
	}
	return nil
}

// checkApplied fails an update the server acknowledged without applying
// every example it carried.
func checkApplied(applied, sent int) error {
	if applied != sent {
		return fmt.Errorf("update applied %d of %d examples", applied, sent)
	}
	return nil
}

// runLeg boots a sharded wmserve on loopback, serves it over proto, and
// drives it with clients concurrent clients sending examples in total.
// Every client's stream is generated before the clock starts, so the
// report measures serving throughput, not datagen throughput (Zipf
// sampling is expensive enough to dominate at binary-protocol speeds).
func runLeg(proto string, examples, clients, workers int) (*legReport, error) {
	srv, err := server.New(server.Options{
		Backend: server.BackendSharded,
		Config:  core.Config{Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 1},
		Sharded: core.ShardedOptions{Workers: workers},
		// The report embeds the run's slowest sampled trace; keep every
		// trace so "slowest" means slowest of the whole run, not of a 1%
		// sample. Tail-based recording costs a copy at root Finish — noise
		// next to the serving work this measures.
		Trace: trace.Options{SampleRate: 1},
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	lat := &latencies{update: newLatencyRecorder(), predict: newLatencyRecorder()}
	var send func(clientInput) (int, error)
	batch := jsonBatch
	switch proto {
	case protoJSON:
		hs := &http.Server{Handler: srv}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		client := &http.Client{Timeout: 30 * time.Second}
		send = func(in clientInput) (int, error) { return sendJSON(client, "http://"+addr, in, lat) }
	case protoBinary:
		go func() { _ = srv.ServeBin(ln) }()
		defer ln.Close()
		batch = binaryBatch
		send = func(in clientInput) (int, error) { return sendBinary(addr, in, lat) }
	default:
		_ = ln.Close()
		return nil, fmt.Errorf("unknown proto %q", proto)
	}

	perClient := max(examples/clients, 1)
	inputs := make([]clientInput, clients)
	for c := range inputs {
		gen := datagen.RCV1Like(streamSeed + int64(c))
		inputs[c] = clientInput{data: gen.Take(perClient), probes: gen.Take(probesPerClient)}
	}
	sent := make([]int, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range inputs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sent[c], errs[c] = send(inputs[c])
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	total := 0
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s client %d: %w", proto, c, err)
		}
		total += sent[c]
	}
	report := &legReport{
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		Backend:       server.BackendSharded,
		Workers:       workers,
		Proto:         proto,
		Clients:       clients,
		Batch:         batch,
		Examples:      total,
		WallSeconds:   wall.Seconds(),
		UpdatesPerSec: float64(total) / wall.Seconds(),
		Update:        lat.update.summary(),
		Predict:       lat.predict.summary(),
		LatencySource: "obs_histogram",
	}
	if proto == protoBinary {
		report.InFlight = inFlight
	}
	if rec := srv.Tracer().SlowestRecord(); rec != nil {
		tj := trace.RenderRecord(rec)
		report.SlowestTrace = &tj
	}
	return report, nil
}

// sendJSON is the JSON leg's send loop: one POST /v1/update per batch,
// each answered before the next. It returns the examples the server
// applied.
func sendJSON(client *http.Client, base string, in clientInput, lat *latencies) (sent int, err error) {
	reqs, predicted := 0, 0
	for i := 0; i < len(in.data); i += jsonBatch {
		batch := in.data[i:min(i+jsonBatch, len(in.data))]
		var up server.UpdateResponse
		d, err := postJSON(client, base+"/v1/update", server.UpdateRequest{Examples: toWire(batch)}, &up)
		if err != nil {
			return sent, err
		}
		if err := checkApplied(up.Applied, len(batch)); err != nil {
			return sent, err
		}
		lat.update.observe(d)
		sent += len(batch)
		reqs++
		if err := in.predictsDue(reqs, &predicted, lat.predict, func(x stream.Vector) (time.Duration, error) {
			var pr server.PredictResponse
			return postJSON(client, base+"/v1/predict", server.PredictRequest{X: vecWire(x)}, &pr)
		}); err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// postJSON posts body and decodes a 200 answer into out. The latency it
// returns runs from the request's send to the end of its answer.
func postJSON(client *http.Client, url string, body, out interface{}) (time.Duration, error) {
	blob, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, answer)
	}
	if err := json.Unmarshal(answer, out); err != nil {
		return 0, fmt.Errorf("%s: %w", url, err)
	}
	return d, nil
}

// sendBinary is the binary leg's send loop: one pipelined connection,
// driven in bursts of inFlight tagged update frames per flush, so framing
// cost amortizes across the window the way the protocol is designed to be
// used. Latency runs from frame queueing to response arrival — honest
// pipeline latency, not bare service time. Predicts are issued
// synchronously between bursts.
func sendBinary(addr string, in clientInput, lat *latencies) (sent int, err error) {
	cl, err := wire.Dial(addr, 10*time.Second)
	if err != nil {
		return 0, err
	}
	defer cl.Close()

	type slot struct {
		call   *wire.Call
		issued time.Time
		n      int
	}
	burst := make([]slot, 0, inFlight)
	free := make([]*wire.Call, 0, inFlight)
	flushWait := func() error {
		if len(burst) == 0 {
			return nil
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		for i := range burst {
			status, resp, err := burst[i].call.Wait()
			if err != nil {
				return err
			}
			if status != wire.StatusOK {
				msg, derr := wire.DecodeErrorResponse(resp)
				if derr != nil {
					msg = derr.Error()
				}
				return fmt.Errorf("update rejected (status %d): %s", status, msg)
			}
			applied, _, err := wire.DecodeUpdateResponse(resp)
			if err != nil {
				return err
			}
			if err := checkApplied(applied, burst[i].n); err != nil {
				return err
			}
			lat.update.observe(time.Since(burst[i].issued))
			sent += burst[i].n
			free = append(free, burst[i].call)
		}
		burst = burst[:0]
		return nil
	}

	var enc []byte
	reqs, predicted := 0, 0
	for i := 0; i < len(in.data); i += binaryBatch {
		batch := in.data[i:min(i+binaryBatch, len(in.data))]
		if enc, err = wire.AppendUpdateRequest(enc[:0], batch); err != nil {
			return sent, err
		}
		var call *wire.Call
		if n := len(free); n > 0 {
			call = free[n-1]
			free = free[:n-1]
		}
		// WriteFrame copies into the client's write buffer, so enc is free
		// for reuse as soon as Go returns.
		if call, err = cl.Go(wire.OpUpdate, enc, call); err != nil {
			return sent, err
		}
		burst = append(burst, slot{call: call, issued: time.Now(), n: len(batch)})
		reqs++
		if len(burst) == inFlight {
			if err := flushWait(); err != nil {
				return sent, err
			}
			if err := in.predictsDue(reqs, &predicted, lat.predict, func(x stream.Vector) (time.Duration, error) {
				t0 := time.Now()
				_, _, err := cl.Predict(x)
				return time.Since(t0), err
			}); err != nil {
				return sent, err
			}
		}
	}
	return sent, flushWait()
}

func toWire(batch []stream.Example) []server.ExampleJSON {
	out := make([]server.ExampleJSON, len(batch))
	for i, ex := range batch {
		out[i] = server.ExampleJSON{Y: ex.Y, X: vecWire(ex.X)}
	}
	return out
}

func vecWire(x stream.Vector) []server.FeatureJSON {
	fs := make([]server.FeatureJSON, len(x))
	for j, f := range x {
		fs[j] = server.FeatureJSON{I: f.Index, V: f.Value}
	}
	return fs
}

func printLeg(report *legReport) {
	fmt.Printf("serve-bench[%s]: backend=%s workers=%d clients=%d\n",
		report.Proto, report.Backend, report.Workers, report.Clients)
	fmt.Printf("  %d examples in %.2fs = %.0f updates/sec\n",
		report.Examples, report.WallSeconds, report.UpdatesPerSec)
	fmt.Printf("  update  p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max %.2f ms (%d reqs)\n",
		report.Update.P50Ms, report.Update.P95Ms, report.Update.P99Ms, report.Update.MaxMs, report.Update.Requests)
	fmt.Printf("  predict p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max %.2f ms (%d reqs)\n",
		report.Predict.P50Ms, report.Predict.P95Ms, report.Predict.P99Ms, report.Predict.MaxMs, report.Predict.Requests)
	if st := report.SlowestTrace; st != nil {
		fmt.Printf("  slowest sampled trace %s: %s %.2f ms (%s), %d root spans\n",
			st.TraceID, st.Root, st.DurationMs, st.Reason, len(st.Spans))
	}
}

func runServeBench(examples, clients, workers int, proto, jsonPath, baselinePath string) error {
	if examples <= 0 {
		// Long enough that fixed startup (listener boot, dials, first-burst
		// ramp) is noise for the binary leg too, which finishes ~10x sooner
		// than the JSON leg at equal example counts.
		examples = 300_000
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var protos []string
	switch proto {
	case protoJSON, protoBinary:
		protos = []string{proto}
	case "both", "":
		protos = []string{protoJSON, protoBinary}
	default:
		return fmt.Errorf("-proto %q (want json, binary, or both)", proto)
	}
	var combined serveBenchReport
	for _, p := range protos {
		report, err := runLeg(p, examples, clients, workers)
		if err != nil {
			return err
		}
		printLeg(report)
		if p == protoJSON {
			combined.JSON = report
		} else {
			combined.Binary = report
		}
	}
	if combined.JSON != nil && combined.Binary != nil && combined.JSON.UpdatesPerSec > 0 {
		combined.BinarySpeedup = combined.Binary.UpdatesPerSec / combined.JSON.UpdatesPerSec
		fmt.Printf("serve-bench: binary is %.1fx the JSON path (%.0f vs %.0f updates/sec)\n",
			combined.BinarySpeedup, combined.Binary.UpdatesPerSec, combined.JSON.UpdatesPerSec)
	}
	if jsonPath != "" {
		blob, err := json.MarshalIndent(&combined, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", jsonPath)
	}
	if baselinePath != "" {
		if err := checkServeBaseline(&combined, baselinePath); err != nil {
			return fmt.Errorf("serve-baseline: FAIL: %w", err)
		}
		fmt.Println("serve-baseline: ok")
	}
	return nil
}

// serveBaselineTolerance is the allowed fractional drop below the recorded
// baseline before -serve-baseline fails (the tier-2 regression gate).
const serveBaselineTolerance = 0.25

// readBaseline loads a recorded BENCH_serve.json; it must carry at least
// one leg.
func readBaseline(path string) (*serveBenchReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base serveBenchReport
	if err := json.Unmarshal(blob, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if base.JSON == nil && base.Binary == nil {
		return nil, fmt.Errorf("%s: no json or binary leg", path)
	}
	return &base, nil
}

// checkServeBaseline fails when a measured leg drops more than
// serveBaselineTolerance below the baseline's updates/sec for the same
// protocol. A leg absent from either side (a -proto run measures one) is
// skipped.
func checkServeBaseline(got *serveBenchReport, baselinePath string) error {
	base, err := readBaseline(baselinePath)
	if err != nil {
		return err
	}
	check := func(name string, got, base *legReport) error {
		if got == nil || base == nil || base.UpdatesPerSec <= 0 {
			return nil
		}
		floor := base.UpdatesPerSec * (1 - serveBaselineTolerance)
		if got.UpdatesPerSec < floor {
			return fmt.Errorf("%s path at %.0f updates/sec is more than %.0f%% below the recorded baseline %.0f (floor %.0f)",
				name, got.UpdatesPerSec, serveBaselineTolerance*100, base.UpdatesPerSec, floor)
		}
		fmt.Printf("serve-baseline: %s %.0f updates/sec vs baseline %.0f (floor %.0f): ok\n",
			name, got.UpdatesPerSec, base.UpdatesPerSec, floor)
		return nil
	}
	if err := check("json", got.JSON, base.JSON); err != nil {
		return err
	}
	return check("binary", got.Binary, base.Binary)
}
