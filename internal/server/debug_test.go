package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"sync"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/trace"
)

// lockedBuffer is a mutex-guarded log sink: handlers log from request
// goroutines while the test reads the capture.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *lockedBuffer) Lines() [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out [][]byte
	for _, ln := range bytes.Split(b.buf.Bytes(), []byte("\n")) {
		if len(ln) > 0 {
			out = append(out, append([]byte(nil), ln...))
		}
	}
	return out
}

// hasSpanChain reports whether the rendered span forest contains the named
// ancestor→…→descendant chain (children may interleave with others).
func hasSpanChain(spans []trace.SpanTreeJSON, chain ...string) bool {
	if len(chain) == 0 {
		return true
	}
	for i := range spans {
		if spans[i].Name == chain[0] && hasSpanChain(spans[i].Children, chain[1:]...) {
			return true
		}
		// The chain may also start deeper in the tree.
		if hasSpanChain(spans[i].Children, chain...) {
			return true
		}
	}
	return false
}

// TestTracesAndStructuredLogs: with every trace kept, the debug listener's
// /debug/traces serves an HTTP update's span chain (route → backend.apply
// → learner.update) and the same chain under a binary update's bin/update
// root, so context survives the middleware, the pipelined dispatch and the
// batch path. Logs are JSON lines; the update's DEBUG request record
// carries its 32-hex trace_id; and once the floor is raised to WARN, a
// clean request logs nothing.
func TestTracesAndStructuredLogs(t *testing.T) {
	for _, backend := range backends() {
		t.Run(backend, func(t *testing.T) {
			opt := testOptions(t, backend)
			opt.Trace.SampleRate = 1
			level := new(slog.LevelVar)
			level.Set(slog.LevelDebug)
			var logs lockedBuffer
			opt.Logger = slog.New(trace.NewLogHandler(
				slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: level})))
			srv, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			cl := dialBin(t, serveBin(t, srv))
			hs := httptest.NewServer(srv)
			defer hs.Close()
			debug := httptest.NewServer(srv.DebugMux())
			defer debug.Close()

			gen := datagen.RCV1Like(17)
			if code := doJSON(t, "POST", hs.URL+"/v1/update", UpdateRequest{Examples: toWire(gen.Take(64))}, nil); code != 200 {
				t.Fatalf("update: HTTP %d", code)
			}
			if _, _, err := cl.Update(gen.Take(64)); err != nil {
				t.Fatalf("binary update: %v", err)
			}

			var recent, slowest struct {
				Traces []trace.TraceJSON `json:"traces"`
			}
			if code := doJSON(t, "GET", debug.URL+"/debug/traces", nil, &recent); code != 200 {
				t.Fatalf("/debug/traces: HTTP %d", code)
			}
			if code := doJSON(t, "GET", debug.URL+"/debug/traces/slowest", nil, &slowest); code != 200 {
				t.Fatalf("/debug/traces/slowest: HTTP %d", code)
			}
			for _, root := range []string{"POST /v1/update", "bin/update"} {
				found := false
				for _, tr := range recent.Traces {
					if tr.Root == root && hasSpanChain(tr.Spans, root, "backend.apply", "learner.update") {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("/debug/traces holds no %s trace with the %s → backend.apply → learner.update chain (%d traces)",
						root, root, len(recent.Traces))
				}
			}

			lines := logs.Lines()
			loggedUpdate := false
			for _, ln := range lines {
				var rec map[string]interface{}
				if err := json.Unmarshal(ln, &rec); err != nil {
					t.Fatalf("log line is not JSON: %q: %v", ln, err)
				}
				if rec["msg"] == "request" && rec["route"] == "POST /v1/update" && rec["level"] == "DEBUG" {
					tid, _ := rec["trace_id"].(string)
					if _, err := hex.DecodeString(tid); err != nil || len(tid) != 32 {
						t.Fatalf("update request log carries trace_id %q, want 32 hex digits: %q", tid, ln)
					}
					loggedUpdate = true
				}
			}
			if !loggedUpdate {
				t.Fatalf("no DEBUG request log for POST /v1/update among %d lines", len(lines))
			}

			level.Set(slog.LevelWarn)
			mark := logs.Len()
			if code := doJSON(t, "POST", hs.URL+"/v1/predict", PredictRequest{X: vecWire(gen.Next().X)}, nil); code != 200 {
				t.Fatalf("predict: HTTP %d", code)
			}
			if logs.Len() != mark {
				t.Fatal("a 200 predict logged below the WARN floor")
			}
		})
	}
}
