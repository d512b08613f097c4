package server

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
	"wmsketch/internal/wire"
)

// newBinServer boots a server with a binary listener on loopback. hook, if
// non-nil, is installed as the dispatch test hook before the listener
// starts (so its write happens-before every handler read).
func newBinServer(t *testing.T, backend string, bin BinOptions, hook func(op byte)) (*Server, string) {
	t.Helper()
	opt := testOptions(t, backend)
	opt.Bin = bin
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	srv.binHook = hook
	t.Cleanup(func() { _ = srv.Close() })
	return srv, serveBin(t, srv)
}

// serveBin serves srv's binary protocol on a loopback listener, closed at
// cleanup, and returns its address.
func serveBin(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.ServeBin(ln) }()
	t.Cleanup(func() { _ = ln.Close() })
	return ln.Addr().String()
}

func dialBin(t *testing.T, addr string) *wire.Client {
	t.Helper()
	cl, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

// TestBinDispatchCountsEveryOp is the binary analog of
// TestMiddlewareCountsEveryRoute: it drives every op in the dispatch table
// and asserts each recorded a status counter and a latency observation
// under its own op label — an op cannot be served uninstrumented.
func TestBinDispatchCountsEveryOp(t *testing.T) {
	srv, addr := newBinServer(t, BackendAWM, BinOptions{}, nil)
	cl := dialBin(t, addr)

	if _, _, err := cl.Update([]stream.Example{
		{Y: 1, X: stream.Vector{{Index: 3, Value: 1.5}}},
	}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if _, _, err := cl.Predict(stream.Vector{{Index: 3, Value: 1}}); err != nil {
		t.Fatalf("predict: %v", err)
	}
	if _, err := cl.Estimate([]uint32{3}); err != nil {
		t.Fatalf("estimate: %v", err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	reg := srv.MetricsRegistry()
	ops := srv.BinOpNames()
	if len(ops) != 4 {
		t.Fatalf("dispatch table has %d ops: %v", len(ops), ops)
	}
	for _, op := range ops {
		if v, _ := reg.Value("wmbin_requests_total", op, "ok"); v != 1 {
			t.Errorf("op %s: ok count %v, want 1", op, v)
		}
		if n, ok := reg.Value("wmbin_request_duration_seconds", op); !ok || n < 1 {
			t.Errorf("op %s: no latency observation", op)
		}
	}
	if v, _ := reg.Value("wmbin_connections_total"); v != 1 {
		t.Errorf("connections total %v, want 1", v)
	}
	if v, _ := reg.Value("wmbin_connections_open"); v != 1 {
		t.Errorf("connections open %v, want 1", v)
	}
	if v, _ := reg.Value("wmbin_in_flight_requests"); v != 0 {
		t.Errorf("in-flight gauge %v after all responses, want 0", v)
	}
	if v, _ := reg.Value("wmbin_bytes_total", "in"); v <= 0 {
		t.Error("no inbound bytes counted")
	}
	if v, _ := reg.Value("wmbin_bytes_total", "out"); v <= 0 {
		t.Error("no outbound bytes counted")
	}
	// The binary path shares the core counters with the JSON path.
	if v, _ := reg.Value("wmcore_updates_applied_total"); v != 1 {
		t.Errorf("updates applied %v, want 1", v)
	}
	if v, _ := reg.Value("wmserve_predicts_total"); v != 1 {
		t.Errorf("predicts %v, want 1", v)
	}
	if v, _ := reg.Value("wmserve_estimates_total"); v != 1 {
		t.Errorf("estimates %v, want 1", v)
	}
}

// TestBinBadRequestKeepsConnection pins the two-tier error model: a
// payload-level violation answers StatusBadRequest and the connection
// keeps serving.
func TestBinBadRequestKeepsConnection(t *testing.T) {
	srv, addr := newBinServer(t, BackendAWM, BinOptions{}, nil)
	cl := dialBin(t, addr)

	call, err := cl.Go(wire.OpUpdate, []byte{0x00}, nil) // zero examples
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	status, payload, err := call.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if status != wire.StatusBadRequest {
		t.Fatalf("status %d, want StatusBadRequest", status)
	}
	if msg, _ := wire.DecodeErrorResponse(payload); !strings.Contains(msg, "no examples") {
		t.Fatalf("error message %q", msg)
	}
	// Same connection still serves.
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after bad request: %v", err)
	}
	if v, _ := srv.MetricsRegistry().Value("wmbin_requests_total", "update", "bad_request"); v != 1 {
		t.Errorf("bad_request count %v, want 1", v)
	}
	if v, _ := srv.MetricsRegistry().Value("wmcore_updates_applied_total"); v != 0 {
		t.Errorf("rejected update reached the backend (%v applied)", v)
	}
}

// TestBinFrameViolationClosesConnection pins the other tier: a frame-level
// violation (garbage after the handshake) is connection fatal.
func TestBinFrameViolationClosesConnection(t *testing.T) {
	srv, addr := newBinServer(t, BackendAWM, BinOptions{}, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteHandshake(conn); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadHandshake(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after frame violation")
	}
	waitForValue(t, func() (float64, bool) {
		return srv.MetricsRegistry().Value("wmbin_connection_errors_total")
	}, 1)
}

// TestBinPipeliningOutOfOrder proves tag pairing: a hook stalls the first
// update so later requests complete first, and every response must still
// carry its own request's applied count.
func TestBinPipeliningOutOfOrder(t *testing.T) {
	var once sync.Once
	hook := func(op byte) {
		if op == wire.OpUpdate {
			once.Do(func() { time.Sleep(150 * time.Millisecond) })
		}
	}
	_, addr := newBinServer(t, BackendAWM, BinOptions{}, hook)
	cl := dialBin(t, addr)

	gen := datagen.RCV1Like(11)
	sizes := []int{5, 1, 2, 3, 4} // the size-5 request is the stalled one
	calls := make([]*wire.Call, len(sizes))
	var enc []byte
	for i, n := range sizes {
		var err error
		enc, err = wire.AppendUpdateRequest(enc[:0], gen.Take(n))
		if err != nil {
			t.Fatal(err)
		}
		if calls[i], err = cl.Go(wire.OpUpdate, enc, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, call := range calls {
		status, payload, err := call.Wait()
		if err != nil || status != wire.StatusOK {
			t.Fatalf("request %d: status %d err %v", i, status, err)
		}
		applied, _, err := wire.DecodeUpdateResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if applied != sizes[i] {
			t.Fatalf("request %d: applied %d, want %d — response paired with the wrong tag",
				i, applied, sizes[i])
		}
	}
}

// TestBinPipeliningStress hammers the path the protocol exists for: many
// connections, each keeping a full window of tagged requests in flight,
// every response checked against its own request.
func TestBinPipeliningStress(t *testing.T) {
	const (
		conns    = 4
		inFlight = 64
		rounds   = 5
	)
	srv, addr := newBinServer(t, BackendAWM, BinOptions{MaxInFlight: inFlight}, nil)

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := wire.Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			gen := datagen.RCV1Like(int64(100 + c))
			var enc []byte
			for r := 0; r < rounds; r++ {
				calls := make([]*wire.Call, inFlight)
				sizes := make([]int, inFlight)
				for i := range calls {
					sizes[i] = 1 + (i+r)%7
					enc, err = wire.AppendUpdateRequest(enc[:0], gen.Take(sizes[i]))
					if err != nil {
						errs <- err
						return
					}
					if calls[i], err = cl.Go(wire.OpUpdate, enc, nil); err != nil {
						errs <- err
						return
					}
				}
				if err := cl.Flush(); err != nil {
					errs <- err
					return
				}
				for i, call := range calls {
					status, payload, err := call.Wait()
					if err != nil || status != wire.StatusOK {
						errs <- fmt.Errorf("conn %d round %d req %d: status %d err %v", c, r, i, status, err)
						return
					}
					applied, _, err := wire.DecodeUpdateResponse(payload)
					if err != nil {
						errs <- err
						return
					}
					if applied != sizes[i] {
						errs <- fmt.Errorf("conn %d round %d req %d: applied %d, want %d (tag mismatch)",
							c, r, i, applied, sizes[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < inFlight; i++ {
			want += 1 + (i+r)%7
		}
	}
	want *= conns
	if v, _ := srv.MetricsRegistry().Value("wmcore_updates_applied_total"); int(v) != want {
		t.Errorf("updates applied %v, want %d", v, want)
	}
	if v, _ := srv.MetricsRegistry().Value("wmbin_in_flight_requests"); v != 0 {
		t.Errorf("in-flight gauge %v after drain, want 0", v)
	}
}

// TestBinAbruptDisconnectNoLeak closes connections mid-pipeline (with a
// hook keeping handlers busy so responses are provably undelivered) and
// requires every server goroutine to exit.
func TestBinAbruptDisconnectNoLeak(t *testing.T) {
	hook := func(op byte) {
		if op == wire.OpUpdate {
			time.Sleep(20 * time.Millisecond)
		}
	}
	srv, addr := newBinServer(t, BackendAWM, BinOptions{}, hook)
	base := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteHandshake(conn); err != nil {
			t.Fatal(err)
		}
		if err := wire.ReadHandshake(conn); err != nil {
			t.Fatal(err)
		}
		enc, err := wire.AppendUpdateRequest(nil, []stream.Example{
			{Y: 1, X: stream.Vector{{Index: 1, Value: 1}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			if _, err := wire.WriteFrame(conn, wire.OpUpdate, uint32(j), enc); err != nil {
				t.Fatal(err)
			}
		}
		_ = conn.Close() // abruptly, with all 8 responses outstanding
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		open, _ := srv.MetricsRegistry().Value("wmbin_connections_open")
		if runtime.NumGoroutine() <= base && open == 0 {
			if v, _ := srv.MetricsRegistry().Value("wmbin_in_flight_requests"); v != 0 {
				t.Fatalf("in-flight gauge %v after teardown", v)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked after abrupt disconnects: %d > baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// TestBinIdleTimeout proves a silent client is disconnected at the idle
// deadline rather than pinning connection state forever.
func TestBinIdleTimeout(t *testing.T) {
	srv, addr := newBinServer(t, BackendAWM, BinOptions{IdleTimeout: 100 * time.Millisecond}, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteHandshake(conn); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadHandshake(conn); err != nil {
		t.Fatal(err)
	}
	// Send nothing. The server must close within the idle deadline (plus
	// slack), observed as EOF on our read.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept a silent connection open")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("disconnect took %v, idle timeout was 100ms", elapsed)
	}
	waitForValue(t, func() (float64, bool) {
		return srv.MetricsRegistry().Value("wmbin_connections_open")
	}, 0)
}

// TestCloseDrainsBinaryConnections: Close stops the binary protocol before
// its final checkpoint. An update a handler is still applying when Close
// begins holds Close up, is answered, and is in the checkpoint; after
// Close the connection takes no further update and the listener no new
// client.
func TestCloseDrainsBinaryConnections(t *testing.T) {
	for _, backend := range backends() {
		t.Run(backend, func(t *testing.T) {
			entered, release := make(chan struct{}), make(chan struct{})
			var updates atomic.Int32
			hook := func(op byte) {
				if op == wire.OpUpdate && updates.Add(1) == 2 {
					close(entered)
					<-release
				}
			}
			srv, addr := newBinServer(t, backend, BinOptions{}, hook)
			unblock := sync.OnceFunc(func() { close(release) })
			t.Cleanup(unblock)
			cl := dialBin(t, addr)
			gen := datagen.RCV1Like(23)
			if _, steps, err := cl.Update(gen.Take(64)); err != nil || steps != 64 {
				t.Fatalf("first update: steps %d, err %v", steps, err)
			}
			enc, err := wire.AppendUpdateRequest(nil, gen.Take(64))
			if err != nil {
				t.Fatal(err)
			}
			call, err := cl.Go(wire.OpUpdate, enc, nil)
			if err == nil {
				err = cl.Flush()
			}
			if err != nil {
				t.Fatal(err)
			}
			<-entered

			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			select {
			case err := <-closed:
				t.Fatalf("Close returned (err %v) while an update was being applied", err)
			case <-time.After(50 * time.Millisecond):
			}
			unblock()
			status, payload, err := call.Wait()
			if err != nil || status != wire.StatusOK {
				t.Fatalf("in-flight update: status %d, err %v", status, err)
			}
			if _, steps, err := wire.DecodeUpdateResponse(payload); err != nil || steps != 128 {
				t.Fatalf("in-flight update: steps %d, err %v", steps, err)
			}
			if err := <-closed; err != nil {
				t.Fatalf("close: %v", err)
			}

			if _, steps, err := cl.Update(gen.Take(64)); err == nil {
				t.Fatalf("update after Close acknowledged at steps %d", steps)
			}
			if late, err := wire.Dial(addr, time.Second); err == nil {
				late.Close()
				t.Fatal("listener accepted a client after Close")
			}
			restored, err := New(testOptions(t, backend))
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			if err := restored.Restore(srv.opt.CheckpointPath); err != nil {
				t.Fatal(err)
			}
			var steps int64
			restored.withBackend(func(b learner) { steps = b.Steps() })
			if steps != 128 {
				t.Fatalf("final checkpoint holds %d steps, 128 were acknowledged", steps)
			}
		})
	}
}

// waitForValue polls a metric until it reaches want or the deadline fires.
func waitForValue(t *testing.T, get func() (float64, bool), want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, _ := get(); v == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	v, _ := get()
	t.Fatalf("metric stuck at %v, want %v", v, want)
}
