package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/server"
	"wmsketch/internal/stream"
	"wmsketch/internal/wire"
)

// TestBootRestoresBeforeServingBinary: a binary client that connects while
// wmserve -restore boots must land its update on the restored backend. An
// update served before the restore would be acknowledged, then dropped
// with the backend the restore replaces.
func TestBootRestoresBeforeServingBinary(t *testing.T) {
	opt := server.Options{
		Backend:         server.BackendSharded,
		Config:          core.Config{Width: 1 << 16, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: 42},
		Sharded:         core.ShardedOptions{Workers: 2},
		RefreshInterval: -1,
		CheckpointPath:  filepath.Join(t.TempDir(), "boot.ckpt"),
	}
	gen := datagen.RCV1Like(3)

	// A previous run: 1001 updates, flushed to the checkpoint on Close.
	prev, err := server.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(prev)
	var up server.UpdateResponse
	postJSON(t, hs.URL+"/v1/update", server.UpdateRequest{Examples: examplesJSON(gen.Take(1001))}, &up)
	hs.Close()
	if err := prev.Close(); err != nil {
		t.Fatal(err)
	}

	// The binary socket is bound before boot, as serve binds it, and a
	// client is already waiting on it when boot starts.
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bln.Close()
	batch := gen.Take(64)
	acked := make(chan error, 1)
	go func() {
		cl, err := wire.Dial(bln.Addr().String(), 10*time.Second)
		if err != nil {
			acked <- err
			return
		}
		defer cl.Close()
		_, _, err = cl.Update(batch)
		acked <- err
	}()

	srv, err := boot(opt, slog.New(slog.DiscardHandler), true, bln)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := <-acked; err != nil {
		t.Fatalf("binary update during boot: %v", err)
	}
	api := httptest.NewServer(srv)
	defer api.Close()
	var st server.StatsResponse
	getJSON(t, api.URL+"/v1/stats", &st)
	if st.Steps != 1001+64 {
		t.Fatalf("steps %d after restoring 1001 and acknowledging 64 more, want %d", st.Steps, 1001+64)
	}
}

// TestCheckFlagsRefusesUnsafeCombinations: wmserve exits before binding a
// listener on a binary listener with an auth token (the binary protocol
// does not authenticate) and on -peers without an id it can derive.
func TestCheckFlagsRefusesUnsafeCombinations(t *testing.T) {
	cases := []struct {
		addr, binAddr, authToken, peers, nodeID string
		refused                                 bool
	}{
		{addr: ":8080", binAddr: ":8081", authToken: "T", refused: true},
		{addr: ":8080", binAddr: ":8081"},
		{addr: ":8080", authToken: "T"},
		{addr: ":8080", peers: "http://10.0.0.2:8080", refused: true},
		{addr: "10.0.0.1:8080", peers: "http://10.0.0.2:8080"},
		{addr: ":8080", peers: "http://10.0.0.2:8080", nodeID: "node-1"},
	}
	for _, c := range cases {
		err := checkFlags(c.addr, c.binAddr, c.authToken, c.peers, c.nodeID)
		if (err != nil) != c.refused {
			t.Errorf("checkFlags(%+v) = %v, want refused %v", c, err, c.refused)
		}
	}
}

// TestRefusesInvalidConfig: a configuration core refuses ends wmserve
// with exit status 2 and one line on stderr, before it binds a listener,
// not with a panic.
func TestRefusesInvalidConfig(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to build wmserve with")
	}
	bin := filepath.Join(t.TempDir(), "wmserve")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{{"-heap", "70000"}, {"-heap", "0"}, {"-depth", "65"}} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("wmserve %v: %v, want exit status 2", args, err)
		}
		msg := stderr.String()
		if strings.Contains(msg, "panic:") || strings.Count(msg, "\n") != 1 {
			t.Errorf("wmserve %v wrote %q to stderr, want one line and no panic", args, msg)
		}
	}
}

func examplesJSON(data []stream.Example) []server.ExampleJSON {
	out := make([]server.ExampleJSON, len(data))
	for i, ex := range data {
		fs := make([]server.FeatureJSON, len(ex.X))
		for j, f := range ex.X {
			fs[j] = server.FeatureJSON{I: f.Index, V: f.Value}
		}
		out[i] = server.ExampleJSON{Y: ex.Y, X: fs}
	}
	return out
}

func postJSON(t *testing.T, url string, req, resp interface{}) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d", url, r.StatusCode)
	}
	if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t *testing.T, url string, resp interface{}) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, r.StatusCode)
	}
	if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
		t.Fatal(err)
	}
}
