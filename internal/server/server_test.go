package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

func testOptions(t testing.TB, backend string) Options {
	t.Helper()
	return Options{
		Backend: backend,
		Config:  core.Config{Width: 512, Depth: 1, HeapSize: 64, Lambda: 1e-6, Seed: 7},
		Sharded: core.ShardedOptions{Workers: 2, SyncEvery: -1},
		// Tests drive /v1/sync explicitly; the background refresher would
		// make snapshot timing nondeterministic.
		RefreshInterval: -1,
		CheckpointPath:  filepath.Join(t.TempDir(), "test.ckpt"),
	}
}

func newTestServer(t *testing.T, backend string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(testOptions(t, backend))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv, hs
}

func doJSON(t *testing.T, method, url string, req, resp interface{}) int {
	t.Helper()
	var body *bytes.Reader
	if req != nil {
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(blob)
	} else {
		body = bytes.NewReader(nil)
	}
	hreq, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	r, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil && r.StatusCode == http.StatusOK {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return r.StatusCode
}

func backends() []string { return []string{BackendSharded, BackendAWM} }

func toWire(batch []stream.Example) []ExampleJSON {
	out := make([]ExampleJSON, len(batch))
	for i, ex := range batch {
		out[i] = exampleWire(ex)
	}
	return out
}

func exampleWire(ex stream.Example) ExampleJSON {
	return ExampleJSON{Y: ex.Y, X: vecWire(ex.X)}
}

func vecWire(x stream.Vector) []FeatureJSON {
	fs := make([]FeatureJSON, len(x))
	for j, f := range x {
		fs[j] = FeatureJSON{I: f.Index, V: f.Value}
	}
	return fs
}

func TestServerEndToEnd(t *testing.T) {
	for _, backend := range backends() {
		t.Run(backend, func(t *testing.T) {
			_, hs := newTestServer(t, backend)
			gen := datagen.RCV1Like(5)
			data := gen.Take(1024)

			var up UpdateResponse
			if code := doJSON(t, "POST", hs.URL+"/v1/update", UpdateRequest{Examples: toWire(data)}, &up); code != 200 {
				t.Fatalf("update: HTTP %d", code)
			}
			if up.Applied != len(data) {
				t.Fatalf("applied %d, want %d", up.Applied, len(data))
			}
			if code := doJSON(t, "POST", hs.URL+"/v1/sync", struct{}{}, nil); code != 200 {
				t.Fatalf("sync: HTTP %d", code)
			}

			var pr PredictResponse
			probe := gen.Next().X
			if code := doJSON(t, "POST", hs.URL+"/v1/predict", PredictRequest{X: vecWire(probe)}, &pr); code != 200 {
				t.Fatalf("predict: HTTP %d", code)
			}
			if pr.Label != 1 && pr.Label != -1 {
				t.Fatalf("label %d", pr.Label)
			}

			var top TopKResponse
			if code := doJSON(t, "GET", hs.URL+"/v1/topk?k=8", nil, &top); code != 200 {
				t.Fatalf("topk: HTTP %d", code)
			}
			if len(top.Features) == 0 {
				t.Fatal("empty topk")
			}
			// TopK order: descending |weight|.
			for i := 1; i < len(top.Features); i++ {
				a, b := top.Features[i-1].W, top.Features[i].W
				if abs(a) < abs(b) {
					t.Fatalf("topk not sorted: |%g| < |%g|", a, b)
				}
			}

			var est EstimateResponse
			heavy := top.Features[0].I
			if code := doJSON(t, "GET", fmt.Sprintf("%s/v1/estimate?i=%d", hs.URL, heavy), nil, &est); code != 200 {
				t.Fatalf("estimate: HTTP %d", code)
			}
			if est.Weights[0].W != top.Features[0].W {
				t.Fatalf("estimate %g != topk weight %g", est.Weights[0].W, top.Features[0].W)
			}
			var batch EstimateResponse
			if code := doJSON(t, "POST", hs.URL+"/v1/estimate",
				EstimateRequest{Indices: []uint32{heavy, 9999999}}, &batch); code != 200 {
				t.Fatalf("estimate batch: HTTP %d", code)
			}
			if len(batch.Weights) != 2 || batch.Weights[0].W != est.Weights[0].W {
				t.Fatalf("batch estimate mismatch: %+v", batch)
			}

			var st StatsResponse
			if code := doJSON(t, "GET", hs.URL+"/v1/stats", nil, &st); code != 200 {
				t.Fatalf("stats: HTTP %d", code)
			}
			if st.Backend != backend || st.Updates != int64(len(data)) || st.Steps == 0 || st.UptimeSeconds <= 0 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

func TestServerCheckpointRestoreReproducesEstimates(t *testing.T) {
	for _, backend := range backends() {
		t.Run(backend, func(t *testing.T) {
			_, hs := newTestServer(t, backend)
			gen := datagen.RCV1Like(9)
			doJSON(t, "POST", hs.URL+"/v1/update", UpdateRequest{Examples: toWire(gen.Take(800))}, nil)
			doJSON(t, "POST", hs.URL+"/v1/sync", struct{}{}, nil)

			indices := []uint32{1, 2, 3, 5, 8, 13, 21, 34}
			var before EstimateResponse
			doJSON(t, "POST", hs.URL+"/v1/estimate", EstimateRequest{Indices: indices}, &before)

			var ck CheckpointResponse
			if code := doJSON(t, "POST", hs.URL+"/v1/checkpoint", CheckpointRequest{Action: "save"}, &ck); code != 200 {
				t.Fatalf("save: HTTP %d", code)
			}
			if ck.Bytes == 0 {
				t.Fatal("save reported 0 bytes")
			}

			// Diverge, then restore.
			doJSON(t, "POST", hs.URL+"/v1/update", UpdateRequest{Examples: toWire(gen.Take(400))}, nil)
			if code := doJSON(t, "POST", hs.URL+"/v1/checkpoint", CheckpointRequest{Action: "restore"}, nil); code != 200 {
				t.Fatalf("restore: HTTP %d", code)
			}

			var after EstimateResponse
			doJSON(t, "POST", hs.URL+"/v1/estimate", EstimateRequest{Indices: indices}, &after)
			for i := range indices {
				if before.Weights[i] != after.Weights[i] {
					t.Fatalf("estimate(%d): %v before, %v after restore",
						indices[i], before.Weights[i], after.Weights[i])
				}
			}
			// The restored backend must keep learning.
			var up UpdateResponse
			if code := doJSON(t, "POST", hs.URL+"/v1/update",
				UpdateRequest{Example: &ExampleJSON{Y: 1, X: []FeatureJSON{{I: 3, V: 1}}}}, &up); code != 200 {
				t.Fatalf("post-restore update: HTTP %d", code)
			}
		})
	}
}

// TestStatsWorkersFollowRestoredBackend: a sharded checkpoint carries its
// own worker count, so after a restore /v1/stats must report the live
// backend's workers (and memory) rather than the configured ones; the
// single-model backends keep omitting the field.
func TestStatsWorkersFollowRestoredBackend(t *testing.T) {
	opt := testOptions(t, BackendSharded)
	opt.Sharded.Workers = 4
	four, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := four.saveCheckpoint(context.Background(), opt.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	if err := four.Close(); err != nil {
		t.Fatal(err)
	}

	srv, hs := newTestServer(t, BackendSharded) // configured for 2 workers
	if err := srv.Restore(opt.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if code := doJSON(t, "GET", hs.URL+"/v1/stats", nil, &st); code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	// 4 shards × (sketch 4·512 + heap 8·64).
	if st.Workers != 4 || st.MemoryBytes != 4*(4*512+8*64) {
		t.Fatalf("stats after restoring a 4-worker checkpoint: workers=%d memory_bytes=%d, want 4 and %d",
			st.Workers, st.MemoryBytes, 4*(4*512+8*64))
	}

	_, awm := newTestServer(t, BackendAWM)
	var raw map[string]interface{}
	if code := doJSON(t, "GET", awm.URL+"/v1/stats", nil, &raw); code != 200 {
		t.Fatalf("awm stats: HTTP %d", code)
	}
	if w, ok := raw["workers"]; ok {
		t.Fatalf("awm stats carry workers=%v, want the field omitted", w)
	}
}

// TestNewRefusesInvalidConfig: a configuration core refuses is an error
// from New, on either backend, not a panic from inside it.
func TestNewRefusesInvalidConfig(t *testing.T) {
	for _, c := range []struct {
		name               string
		width, depth, heap int
	}{
		{"heap 0", 512, 1, 0},
		{"heap 70000", 512, 1, 70000},
		{"depth 0", 512, 0, 64},
		{"depth 65", 512, 65, 64},
		{"depth×width over 2^27", 1<<26 + 1, 2, 64},
	} {
		for _, backend := range backends() {
			opt := testOptions(t, backend)
			opt.Config.Width, opt.Config.Depth, opt.Config.HeapSize = c.width, c.depth, c.heap
			srv, err := New(opt)
			if err == nil {
				srv.Close()
				t.Errorf("%s, %s: New accepted the configuration", c.name, backend)
			}
		}
	}
}

func TestServerRejectsBadInput(t *testing.T) {
	_, hs := newTestServer(t, BackendAWM)
	cases := []struct {
		name string
		path string
		body string
	}{
		{"empty-update", "/v1/update", `{}`},
		{"zero-label", "/v1/update", `{"example":{"y":0,"x":[{"i":1,"v":1}]}}`},
		{"bad-label", "/v1/update", `{"example":{"y":3,"x":[{"i":1,"v":1}]}}`},
		{"both-forms", "/v1/update", `{"example":{"y":1,"libsvm":"1 1:1"}}`},
		{"bad-libsvm", "/v1/update", `{"example":{"libsvm":"x y z"}}`},
		{"unknown-field", "/v1/update", `{"nope":1}`},
		{"bad-json", "/v1/predict", `{"x":`},
		{"bad-action", "/v1/checkpoint", `{"action":"frobnicate"}`},
		{"empty-estimate", "/v1/estimate", `{"indices":[]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(hs.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
	}
	// GET estimate without index; bad topk k.
	for _, url := range []string{hs.URL + "/v1/estimate", hs.URL + "/v1/topk?k=-2"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", url, resp.StatusCode)
		}
	}
	// Oversized body must be rejected, not buffered.
	huge := `{"example":{"libsvm":"` + strings.Repeat("1:1 ", maxRequestBytes/3) + `"}}`
	resp, err := http.Post(hs.URL+"/v1/update", "application/json", strings.NewReader(huge))
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Error("oversized body accepted")
		}
	}
}

func TestServerConcurrentClients(t *testing.T) {
	for _, backend := range []string{BackendSharded, BackendAWM} {
		t.Run(backend, func(t *testing.T) {
			_, hs := newTestServer(t, backend)
			gen := datagen.RCV1Like(11)
			data := gen.Take(1200)
			var wg sync.WaitGroup
			errs := make(chan error, 16)
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(off int) {
					defer wg.Done()
					for i := off * 300; i < (off+1)*300; i += 50 {
						blob, _ := json.Marshal(UpdateRequest{Examples: toWire(data[i : i+50])})
						resp, err := http.Post(hs.URL+"/v1/update", "application/json", bytes.NewReader(blob))
						if err != nil {
							errs <- err
							return
						}
						resp.Body.Close()
						if resp.StatusCode != 200 {
							errs <- fmt.Errorf("HTTP %d", resp.StatusCode)
							return
						}
					}
				}(c)
			}
			// Queries and checkpoints interleave with the updates.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					blob, _ := json.Marshal(PredictRequest{X: vecWire(data[i].X)})
					if resp, err := http.Post(hs.URL+"/v1/predict", "application/json", bytes.NewReader(blob)); err == nil {
						resp.Body.Close()
					}
					blob, _ = json.Marshal(CheckpointRequest{Action: "save"})
					if resp, err := http.Post(hs.URL+"/v1/checkpoint", "application/json", bytes.NewReader(blob)); err == nil {
						resp.Body.Close()
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			var st StatsResponse
			doJSON(t, "POST", hs.URL+"/v1/sync", struct{}{}, nil)
			doJSON(t, "GET", hs.URL+"/v1/stats", nil, &st)
			if st.Updates != 1200 {
				t.Errorf("updates %d, want 1200", st.Updates)
			}
		})
	}
}

// TestNewRejectsUnknownBackend: the WM-Sketch is not served, so "wm" is
// an unknown backend like any other name.
func TestNewRejectsUnknownBackend(t *testing.T) {
	for _, name := range []string{"wm", "bogus"} {
		if _, err := New(Options{Backend: name}); err == nil || !strings.Contains(err.Error(), "unknown backend") {
			t.Errorf("New(Backend %q): err %v, want the unknown-backend error", name, err)
		}
	}
}

func TestServerLibSVMPredict(t *testing.T) {
	_, hs := newTestServer(t, BackendAWM)
	doJSON(t, "POST", hs.URL+"/v1/update",
		UpdateRequest{Example: &ExampleJSON{LibSVM: "+1 1:2.0 5:0.5"}}, nil)
	var viaJSON, viaLibSVM PredictResponse
	doJSON(t, "POST", hs.URL+"/v1/predict",
		PredictRequest{X: []FeatureJSON{{I: 1, V: 2}, {I: 5, V: 0.5}}}, &viaJSON)
	doJSON(t, "POST", hs.URL+"/v1/predict",
		PredictRequest{LibSVM: "1:2.0 5:0.5"}, &viaLibSVM)
	if viaJSON.Margin != viaLibSVM.Margin {
		t.Fatalf("libsvm predict margin %g != structured %g", viaLibSVM.Margin, viaJSON.Margin)
	}
}

// TestBackgroundRefresh runs the sharded backend's refresher, which
// testOptions turns off: updates sent without /v1/sync must reach
// /v1/topk on their own, each refresh is counted, and an idle server stops
// refreshing.
func TestBackgroundRefresh(t *testing.T) {
	const interval = 10 * time.Millisecond
	opt := testOptions(t, BackendSharded)
	opt.RefreshInterval = interval
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		_ = srv.Close()
	})
	refreshes := func() float64 {
		v, _ := srv.MetricsRegistry().Value("wmcore_snapshot_refreshes_total")
		return v
	}
	deadline := time.Now().Add(10 * time.Second)
	// settle waits until five intervals pass without a refresh and returns
	// the count. A refresher that re-merged on every tick never settles.
	settle := func() float64 {
		t.Helper()
		n := refreshes()
		for quiet := 0; quiet < 5; {
			if time.Now().After(deadline) {
				t.Fatalf("refresher never went quiet: %v refreshes", n)
			}
			time.Sleep(interval)
			if v := refreshes(); v != n {
				n, quiet = v, 0
			} else {
				quiet++
			}
		}
		return n
	}

	idle := settle()
	data := datagen.RCV1Like(13).Take(1024)
	if code := doJSON(t, "POST", hs.URL+"/v1/update", UpdateRequest{Examples: toWire(data)}, nil); code != 200 {
		t.Fatalf("update: HTTP %d", code)
	}
	for {
		var top TopKResponse
		if code := doJSON(t, "GET", hs.URL+"/v1/topk?k=8", nil, &top); code != 200 {
			t.Fatalf("topk: HTTP %d", code)
		}
		if len(top.Features) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("updates sent without /v1/sync never reached /v1/topk")
		}
		time.Sleep(interval)
	}
	if n := refreshes(); n <= idle {
		t.Fatalf("wmcore_snapshot_refreshes_total %v after the updates reached /v1/topk, want above the idle %v", n, idle)
	}

	caughtUp := settle()
	time.Sleep(20 * interval)
	if n := refreshes(); n != caughtUp {
		t.Fatalf("idle server refreshed %v more times", n-caughtUp)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
