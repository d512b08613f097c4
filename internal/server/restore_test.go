package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// writeCheckpoint trains the backend kind's bare learner of configuration
// cfg (2 workers when sharded) on examples and returns its checkpoint, as a
// server of that configuration would save it.
func writeCheckpoint(t testing.TB, backend string, cfg core.Config, examples []stream.Example) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if backend == BackendSharded {
		sh := core.NewSharded(cfg, core.ShardedOptions{Workers: 2, SyncEvery: -1})
		for i := 0; i < len(examples); i += 512 {
			sh.UpdateBatch(examples[i:min(i+512, len(examples))])
		}
		_, err = sh.WriteTo(&buf)
		sh.Close()
	} else {
		a := core.NewAWMSketch(cfg)
		for _, ex := range examples {
			a.Update(ex.X, ex.Y)
		}
		_, err = a.WriteTo(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreRefusesMismatchedCheckpoint: a checkpoint whose width, depth,
// seed, heap size or λ differs from Options.Config, or whose first sketch
// header sets a flag, which no writer does, is refused by every restore
// entrance — 400 from the upload, the restore action's 500, an error from
// Server.Restore — and each time the backend keeps serving what it served
// before: the same geometry and steps in /v1/stats, and the same margin on
// a probe. A checkpoint of the server's own configuration then restores
// through all three, so the mismatch is what is refused.
func TestRestoreRefusesMismatchedCheckpoint(t *testing.T) {
	for _, backend := range backends() {
		t.Run(backend, func(t *testing.T) {
			srv, hs := newTestServer(t, backend)
			gen := datagen.RCV1Like(31)
			if code := doJSON(t, "POST", hs.URL+"/v1/update",
				UpdateRequest{Examples: toWire(gen.Take(300))}, nil); code != 200 {
				t.Fatalf("update: HTTP %d", code)
			}
			doJSON(t, "POST", hs.URL+"/v1/sync", struct{}{}, nil)
			probe := PredictRequest{X: vecWire(gen.Take(1)[0].X)}
			state := func() (StatsResponse, float64) {
				t.Helper()
				var st StatsResponse
				var pr PredictResponse
				if code := doJSON(t, "GET", hs.URL+"/v1/stats", nil, &st); code != 200 {
					t.Fatalf("stats: HTTP %d", code)
				}
				if code := doJSON(t, "POST", hs.URL+"/v1/predict", probe, &pr); code != 200 {
					t.Fatalf("predict: HTTP %d", code)
				}
				st.UptimeSeconds, st.Restores, st.Predicts = 0, 0, 0
				return st, pr.Margin
			}
			wantStats, wantMargin := state()
			unchanged := func(after string) {
				t.Helper()
				if st, m := state(); st != wantStats || m != wantMargin {
					t.Fatalf("after %s: stats %+v margin %v, want %+v margin %v", after, st, m, wantStats, wantMargin)
				}
			}
			// upload posts blob, and leaves it at path for the restore action
			// and Server.Restore.
			path := filepath.Join(t.TempDir(), "ckpt")
			upload := func(blob []byte) (int, string) {
				t.Helper()
				up, err := http.Post(hs.URL+"/v1/checkpoint/upload", "application/octet-stream", bytes.NewReader(blob))
				if err != nil {
					t.Fatal(err)
				}
				defer up.Body.Close()
				msg, _ := io.ReadAll(up.Body)
				if err := os.WriteFile(path, blob, 0o600); err != nil {
					t.Fatal(err)
				}
				return up.StatusCode, string(msg)
			}
			restoreAction := func() int {
				t.Helper()
				return doJSON(t, "POST", hs.URL+"/v1/checkpoint", CheckpointRequest{Action: "restore", Path: path}, nil)
			}

			base := testOptions(t, backend).Config
			type refusal struct {
				name string
				blob []byte
			}
			var refused []refusal
			for _, c := range []struct {
				name   string
				modify func(*core.Config)
			}{
				{"width", func(c *core.Config) { c.Width = 256 }},
				{"depth", func(c *core.Config) { c.Depth = 2 }},
				{"seed", func(c *core.Config) { c.Seed = 99 }},
				{"heap size", func(c *core.Config) { c.HeapSize = 32 }},
				{"lambda", func(c *core.Config) { c.Lambda = 1e-4 }},
			} {
				cfg := base
				c.modify(&cfg)
				refused = append(refused, refusal{c.name, writeCheckpoint(t, backend, cfg, datagen.RCV1Like(32).Take(500))})
			}
			// The first model follows the sharded header (24 bytes); its
			// sketch header follows its own header (56 bytes) and heap
			// entries (12 bytes each), and holds the flags at offset 24.
			flagged := writeCheckpoint(t, backend, base, datagen.RCV1Like(32).Take(500))
			model := 0
			if backend == BackendSharded {
				model = 24
			}
			flagged[model+56+12*int(binary.LittleEndian.Uint32(flagged[model+52:]))+24] |= 1
			refused = append(refused, refusal{"sketch flags", flagged})
			for _, c := range refused {
				blob := c.blob
				if code, msg := upload(blob); code != http.StatusBadRequest {
					t.Fatalf("%s: upload answered HTTP %d (%s), want 400", c.name, code, msg)
				}
				unchanged(c.name + " upload")

				if code := restoreAction(); code != http.StatusInternalServerError {
					t.Fatalf("%s: restore action answered HTTP %d, want 500", c.name, code)
				}
				unchanged(c.name + " restore action")

				if err := srv.Restore(path); err == nil {
					t.Fatalf("%s: Server.Restore accepted the checkpoint", c.name)
				}
				unchanged(c.name + " Server.Restore")
			}

			// The server's own configuration restores through each entrance.
			own := writeCheckpoint(t, backend, base, datagen.RCV1Like(33).Take(500))
			if code, msg := upload(own); code != http.StatusOK {
				t.Fatalf("own-geometry upload: HTTP %d (%s)", code, msg)
			}
			if code := restoreAction(); code != http.StatusOK {
				t.Fatalf("own-geometry restore action: HTTP %d", code)
			}
			if err := srv.Restore(path); err != nil {
				t.Fatalf("own-geometry Server.Restore: %v", err)
			}
			if st, _ := state(); st.Steps != 500 {
				t.Fatalf("own-geometry restore serves %d steps, want 500", st.Steps)
			}
		})
	}
}

// TestServerSharesOneHashFamily: every sketch a server builds is on its
// one geometry. The backend's served model — the sharded view or the AWM
// model — and the cluster node's view share the server's hash family,
// after New and after a checkpoint restore.
func TestServerSharesOneHashFamily(t *testing.T) {
	for _, backend := range backends() {
		t.Run(backend, func(t *testing.T) {
			opt := testOptions(t, backend)
			opt.Cluster = ClusterOptions{Self: "node-a", Peers: []string{"http://node-b.invalid"}, Interval: -1}
			srv, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			check := func(when string) {
				t.Helper()
				var sn core.Snapshot
				srv.withBackend(func(b learner) { sn, err = b.ModelSnapshot() })
				if err != nil {
					t.Fatal(err)
				}
				if sn.CS.Hashes() != srv.geo.Hashes() {
					t.Fatalf("%s: the backend's model has a hash family of its own", when)
				}
				if _, _, err := srv.ClusterNode().PublishLocal(); err != nil {
					t.Fatal(err)
				}
				if srv.ClusterNode().View().Sketch().Hashes() != srv.geo.Hashes() {
					t.Fatalf("%s: the cluster view has a hash family of its own", when)
				}
			}
			srv.withBackend(func(b learner) { b.UpdateBatch(datagen.RCV1Like(3).Take(64)) })
			check("after New")
			blob := writeCheckpoint(t, backend, opt.Config, datagen.RCV1Like(4).Take(300))
			if err := srv.restoreFromReader(context.Background(), bytes.NewReader(blob)); err != nil {
				t.Fatal(err)
			}
			check("after a restore")
		})
	}
}

// ingestCheckpoint is a 2-worker sharded checkpoint at the geometry of
// perfbench's ingest workload (3×2^17, heap 2048), warm-started as it is.
func ingestCheckpoint(tb testing.TB) (Options, string) {
	opt := Options{
		Backend:         BackendSharded,
		Config:          core.Config{Width: 1 << 17, Depth: 3, HeapSize: 2048, Lambda: 1e-6, Seed: 42},
		Sharded:         core.ShardedOptions{Workers: 2},
		RefreshInterval: -1,
	}
	blob := writeCheckpoint(tb, BackendSharded, opt.Config, datagen.URLLike(42).Take(32768))
	path := filepath.Join(tb.TempDir(), "ingest.ckpt")
	if err := os.WriteFile(path, blob, 0o600); err != nil {
		tb.Fatal(err)
	}
	return opt, path
}

// restoredKeeps is what a server restored from ingestCheckpoint keeps:
// its two shards' buckets and heaps and its first view's buckets. A heap
// keeps its 32-byte entries and an index of four 8-byte slots per entry
// (the capacity, 2048, is a power of two).
func restoredKeeps(c core.Config) int {
	const workers = 2
	sketchBytes := 8 * c.Depth * c.Width
	heapBytes := 32*c.HeapSize + 4*8*c.HeapSize
	return workers*(sketchBytes+heapBytes) + sketchBytes
}

// allocSlack covers what a boot with a restore allocates beside the
// learner it keeps: the heavy lists, the view's mixed heavy weights (up to
// 4096 keys), the read buffers, and small objects. Any sketch built
// beside the learner, 3 MiB at the ingest geometry, does not fit in it.
const allocSlack = 1 << 20

// TestRestoreAllocations: Server.Restore of a 2-worker 3×2^17 checkpoint
// allocates what the restored backend keeps plus allocSlack. The load
// mixes the first view in the shards' own sketches, so it clones none,
// and New built no backend for the restore to retire. Zeroing a sketch per
// shard to discard it, an empty view that the first merge replaces, a
// shard snapshot for the load-time merge, or a backend New built each
// take 3 MiB, past the slack.
func TestRestoreAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a 3×2^17 checkpoint")
	}
	opt, path := ingestCheckpoint(t)
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := srv.Restore(path); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	keeps := restoredKeeps(opt.Config)
	allocated := int(after.TotalAlloc - before.TotalAlloc)
	report := fmt.Sprintf("Server.Restore allocated %d bytes in %d allocations; it keeps %d, slack %d",
		allocated, after.Mallocs-before.Mallocs, keeps, allocSlack)
	t.Log(report)
	if allocated > keeps+allocSlack {
		t.Errorf("%s: %d bytes over", report, allocated-keeps-allocSlack)
	}
}

// TestBootRestoreBuildsOneLearner boots a server as wmserve -restore does
// at perfbench's ingest geometry, alone and as a cluster node: New; five
// refresh ticks and a /metrics scrape, none of which may build a learner;
// then Restore of a 2-worker 3×2^17 checkpoint. The whole sequence
// allocates what the restored learner keeps plus allocSlack: a learner
// built before the restore and retired by it would take 9 MiB more, and a
// cluster view built before the restore's publish 3 MiB more. The scrape
// reads the wmcore gauges as 0. After the restore, the refresh loop finds
// the loaded view current and merges nothing until an update arrives.
func TestBootRestoreBuildsOneLearner(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a 3×2^17 checkpoint")
	}
	single, path := ingestCheckpoint(t)
	const interval = 2 * time.Millisecond
	single.RefreshInterval = interval
	clustered := single
	clustered.Cluster = ClusterOptions{Self: "node-a", Peers: []string{"http://node-b.invalid"}, Interval: -1}
	for _, tc := range []struct {
		name string
		opt  Options
	}{{"single", single}, {"clustered", clustered}} {
		t.Run(tc.name, func(t *testing.T) {
			value := func(srv *Server, name string) float64 {
				v, _ := srv.MetricsRegistry().Value(name)
				return v
			}
			// The recorder stands in for the scraper's connection: its
			// buffer is the test's, so it is sized before the count starts.
			rec := httptest.NewRecorder()
			rec.Body.Grow(1 << 20)
			scrape := httptest.NewRequest("GET", "/metrics", nil)
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			srv, err := New(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			time.Sleep(5 * interval)
			srv.ServeHTTP(rec, scrape)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET /metrics: HTTP %d", rec.Code)
			}
			if err := srv.Restore(path); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			for _, line := range []string{"wmcore_steps 0\n", "wmcore_memory_bytes 0\n", "wmcore_shard_queue_messages 0\n"} {
				if !strings.Contains(rec.Body.String(), line) {
					t.Errorf("the scrape before the restore lacks %q", strings.TrimSpace(line))
				}
			}

			keeps := restoredKeeps(tc.opt.Config)
			allocated := int(after.TotalAlloc - before.TotalAlloc)
			report := fmt.Sprintf("New, ticks, a scrape and Restore allocated %d bytes in %d allocations; the learner keeps %d, slack %d",
				allocated, after.Mallocs-before.Mallocs, keeps, allocSlack)
			t.Log(report)
			if allocated > keeps+allocSlack {
				t.Errorf("%s: %d bytes over", report, allocated-keeps-allocSlack)
			}

			time.Sleep(5 * interval)
			if n := value(srv, "wmcore_snapshot_refreshes_total"); n != 0 {
				t.Fatalf("the refresh loop merged %v times after the restore, with no update", n)
			}
			srv.withBackend(func(b learner) { b.UpdateBatch(datagen.URLLike(43).Take(64)) })
			for deadline := time.Now().Add(10 * time.Second); value(srv, "wmcore_snapshot_refreshes_total") == 0; time.Sleep(interval) {
				if time.Now().After(deadline) {
					t.Fatal("the refresh loop never merged the update")
				}
			}
		})
	}
}

// TestBootReadersBuildNoLearner: on a fresh server of either backend in
// cluster mode, the refresh loop, the cluster publish and a /metrics
// scrape build no learner, and the wmcore gauges read 0. Close then builds
// one only to flush CheckpointPath, which holds the empty model's
// checkpoint, byte for byte what a fresh learner writes.
func TestBootReadersBuildNoLearner(t *testing.T) {
	for _, backend := range backends() {
		t.Run(backend, func(t *testing.T) {
			opt := testOptions(t, backend)
			opt.RefreshInterval = 2 * time.Millisecond
			opt.Cluster = ClusterOptions{Self: "node-a", Peers: []string{"http://node-b.invalid"}, Interval: -1}
			srv, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * opt.RefreshInterval)
			if _, published, err := srv.ClusterNode().PublishLocal(); err != nil || published {
				t.Fatalf("publish before any update: published %v, err %v", published, err)
			}
			requireFamilies(t, srv, "wmcore_steps")
			for _, name := range []string{"wmcore_steps", "wmcore_memory_bytes", "wmcore_shard_queue_messages", "wmcore_snapshot_refreshes_total"} {
				if v, _ := srv.MetricsRegistry().Value(name); v != 0 {
					t.Errorf("%s reads %v before any learner exists", name, v)
				}
			}
			srv.mu.RLock()
			built := srv.backend != nil
			srv.mu.RUnlock()
			if built {
				t.Fatal("a reader built the learner")
			}

			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(opt.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			if want := writeCheckpoint(t, backend, opt.Config, nil); !bytes.Equal(got, want) {
				t.Fatalf("Close wrote %d checkpoint bytes, not the empty model's %d", len(got), len(want))
			}
		})
	}
}

// TestBootFirstRequestsShareOneLearner: on a fresh server of either
// backend, concurrent first updates, a scrape and a publish check racing
// them build one learner between them, which holds every update.
func TestBootFirstRequestsShareOneLearner(t *testing.T) {
	for _, backend := range backends() {
		t.Run(backend, func(t *testing.T) {
			srv, err := New(testOptions(t, backend))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			const clients, batch = 8, 16
			data := datagen.RCV1Like(5).Take(clients * batch)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(2)
				go func() {
					defer wg.Done()
					srv.applyBatch(context.Background(), data[c*batch:(c+1)*batch])
				}()
				go func() {
					defer wg.Done()
					srv.MetricsRegistry().Value("wmcore_steps")
					backendSnapshotter{srv}.Steps()
				}()
			}
			wg.Wait()
			var steps int64
			srv.withBackend(func(b learner) { steps = b.Steps() })
			if steps != clients*batch {
				t.Fatalf("the learner holds %d steps, want %d", steps, clients*batch)
			}
		})
	}
}

// BenchmarkBootRestore boots a server the way wmserve -restore does at
// perfbench's ingest geometry: server.New, then Restore of a 2-worker
// 3×2^17 checkpoint. Closing the server between boots is not timed.
func BenchmarkBootRestore(b *testing.B) {
	opt, path := ingestCheckpoint(b)
	b.ReportAllocs()
	for b.Loop() {
		srv, err := New(opt)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Restore(path); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
