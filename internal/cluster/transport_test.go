package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestHTTPTransportReusesConnections: alternating pulls and pushes to one
// peer ride a single kept-alive connection. A push that closes its
// response unread costs a fresh connection each time.
func TestHTTPTransportReusesConnections(t *testing.T) {
	var empty bytes.Buffer
	if _, err := WriteFrames(&empty, nil); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		switch r.URL.Path {
		case "/v1/cluster/pull":
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(empty.Bytes())
		case "/v1/cluster/push":
			// The server's answer: JSON with Encode's trailing newline.
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(PushResponse{Applied: 1, Changed: true})
		default:
			http.NotFound(w, r)
		}
	}))
	var conns atomic.Int64
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()

	pool := &http.Transport{}
	defer pool.CloseIdleConnections()
	tr := httpTransport{client: &http.Client{Transport: pool, Timeout: 5 * time.Second}}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		rc, err := tr.Pull(ctx, hs.URL, PullRequest{From: "node-a", Digest: map[string]int64{}})
		if err != nil {
			t.Fatal(err)
		}
		frames, err := ReadFrames(rc)
		rc.Close()
		if err != nil || len(frames) != 0 {
			t.Fatalf("pull %d: %d frames, err %v", i, len(frames), err)
		}
		if err := tr.Push(ctx, hs.URL, empty.Bytes()); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("20 RPCs opened %d connections, want 1", n)
	}
}
