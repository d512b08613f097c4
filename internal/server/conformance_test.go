package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
	"wmsketch/internal/wire"
)

// Differential conformance suite: the binary protocol is only allowed to
// exist because it is observably the same API as HTTP/JSON. A seeded
// request generator drives the same mixed op sequence through both
// protocols against identically-seeded backends and requires:
//
//   - identical results per request — margins, labels, weights, and step
//     counters compare bit-identical (encoding/json round-trips float64
//     exactly, so bitwise equality is a fair bar for both paths);
//   - bit-identical checkpoint bytes afterwards — same model state, not
//     merely similar outputs — and the same bytes as a bare learner, built
//     outside any server and fed the same update batches, so the server's
//     apply path adds nothing to what the learner itself does;
//   - the same error class for malformed inputs (HTTP 400 on one side is
//     StatusBadRequest on the other), with the backend untouched by
//     rejected requests on both sides.
//
// Every test runs on the awm backend and on the sharded one (the
// production default). The binary protocol has no sync op, so syncs go to
// each server's HTTP handler.
//
// CI runs this under -race (make test / go test -race ./...), so the suite
// also doubles as a concurrency check on the binary listener.

// jsonConformanceClient drives the HTTP path of the differential pair.
type jsonConformanceClient struct {
	t    *testing.T
	base string
	hc   *http.Client
}

func (c *jsonConformanceClient) post(path string, body, out interface{}) (int, string) {
	c.t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	return c.postRaw(path, blob, out)
}

func (c *jsonConformanceClient) postRaw(path string, blob []byte, out interface{}) (int, string) {
	c.t.Helper()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s: bad response %q: %v", path, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func (c *jsonConformanceClient) update(batch []stream.Example) (int, int64) {
	var out UpdateResponse
	code, raw := c.post("/v1/update", UpdateRequest{Examples: toWire(batch)}, &out)
	if code != http.StatusOK {
		c.t.Fatalf("JSON update: HTTP %d %s", code, raw)
	}
	return out.Applied, out.Steps
}

func (c *jsonConformanceClient) predict(x stream.Vector) (float64, int) {
	var out PredictResponse
	code, raw := c.post("/v1/predict", PredictRequest{X: vecWire(x)}, &out)
	if code != http.StatusOK {
		c.t.Fatalf("JSON predict: HTTP %d %s", code, raw)
	}
	return out.Margin, out.Label
}

// syncHandler posts /v1/sync straight to a server's HTTP handler and returns
// the reported step counter.
func syncHandler(t *testing.T, s *Server) int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sync", strings.NewReader("{}")))
	if rec.Code != http.StatusOK {
		t.Fatalf("sync: HTTP %d %s", rec.Code, rec.Body.String())
	}
	var out UpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("sync: bad response %q: %v", rec.Body.String(), err)
	}
	return out.Steps
}

func (c *jsonConformanceClient) estimate(indices []uint32) []float64 {
	var out EstimateResponse
	code, raw := c.post("/v1/estimate", EstimateRequest{Indices: indices}, &out)
	if code != http.StatusOK {
		c.t.Fatalf("JSON estimate: HTTP %d %s", code, raw)
	}
	ws := make([]float64, len(out.Weights))
	for i, w := range out.Weights {
		if w.I != indices[i] {
			c.t.Fatalf("JSON estimate echoed index %d at position %d, want %d", w.I, i, indices[i])
		}
		ws[i] = w.W
	}
	return ws
}

// conformanceBackends are the backends the suite runs on: the
// single-model awm backend and the sharded production default.
var conformanceBackends = []string{BackendAWM, BackendSharded}

// conformancePair boots the two identically-seeded servers of the given
// backend and returns clients for both protocols plus the underlying
// servers (for checkpoint comparison).
func conformancePair(t *testing.T, backend string) (*jsonConformanceClient, *wire.Client, *Server, *Server) {
	t.Helper()
	jsrv, hs := newTestServer(t, backend)
	bsrv, addr := newBinServer(t, backend, BinOptions{}, nil)
	jc := &jsonConformanceClient{t: t, base: hs.URL, hc: hs.Client()}
	bc := dialBin(t, addr)
	return jc, bc, jsrv, bsrv
}

// bareLearner is the learner a backend serves, built with the servers'
// test options but outside any server.
type bareLearner interface {
	UpdateBatch(batch []stream.Example)
	io.WriterTo
}

// awmLearner gives a bare AWM-Sketch the batch surface: one Update per
// example, in order.
type awmLearner struct{ *core.AWMSketch }

func (a awmLearner) UpdateBatch(batch []stream.Example) {
	for _, ex := range batch {
		a.Update(ex.X, ex.Y)
	}
}

func newBareLearner(t *testing.T, backend string) bareLearner {
	t.Helper()
	opt := testOptions(t, backend)
	switch backend {
	case BackendAWM:
		return awmLearner{core.NewAWMSketch(opt.Config)}
	case BackendSharded:
		sh := core.NewSharded(opt.Config, opt.Sharded)
		t.Cleanup(sh.Close)
		return sh
	}
	t.Fatalf("no bare learner for backend %q", backend)
	return nil
}

// checkpointBytes serializes a server's backend, the strongest available
// statement of "same model state".
func checkpointBytes(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	s.withBackend(func(b learner) { _, err = b.WriteTo(&buf) })
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// bareCheckpointBytes serializes a bare learner the same way.
func bareCheckpointBytes(t *testing.T, l bareLearner) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatalf("bare checkpoint: %v", err)
	}
	return buf.Bytes()
}

func TestConformanceDifferential(t *testing.T) {
	for _, backend := range conformanceBackends {
		t.Run(backend, func(t *testing.T) { testConformanceDifferential(t, backend) })
	}
}

func testConformanceDifferential(t *testing.T, backend string) {
	jc, bc, jsrv, bsrv := conformancePair(t, backend)
	bare := newBareLearner(t, backend)

	rng := rand.New(rand.NewSource(4242))
	gen := datagen.RCV1Like(4242)
	const requests = 400
	ops := 0
	for i := 0; i < requests; i++ {
		switch p := rng.Float64(); {
		case p < 0.50: // update
			batch := gen.Take(1 + rng.Intn(8))
			ja, js := jc.update(batch)
			ba, bs, err := bc.Update(batch)
			if err != nil {
				t.Fatalf("req %d: binary update: %v", i, err)
			}
			if ja != ba || js != bs {
				t.Fatalf("req %d: update diverged: JSON applied=%d steps=%d, binary applied=%d steps=%d",
					i, ja, js, ba, bs)
			}
			bare.UpdateBatch(batch)
		case p < 0.55: // sync
			if js, bs := syncHandler(t, jsrv), syncHandler(t, bsrv); js != bs {
				t.Fatalf("req %d: sync diverged: JSON steps=%d, binary steps=%d", i, js, bs)
			}
		case p < 0.75: // predict
			x := gen.Take(1)[0].X
			jm, jl := jc.predict(x)
			bm, bl, err := bc.Predict(x)
			if err != nil {
				t.Fatalf("req %d: binary predict: %v", i, err)
			}
			if math.Float64bits(jm) != math.Float64bits(bm) || jl != bl {
				t.Fatalf("req %d: predict diverged: JSON %v/%d, binary %v/%d", i, jm, jl, bm, bl)
			}
		case p < 0.95: // estimate
			indices := make([]uint32, 1+rng.Intn(5))
			for j := range indices {
				indices[j] = uint32(rng.Intn(2048))
			}
			jw := jc.estimate(indices)
			bw, err := bc.Estimate(indices)
			if err != nil {
				t.Fatalf("req %d: binary estimate: %v", i, err)
			}
			if len(jw) != len(bw) {
				t.Fatalf("req %d: estimate lengths %d vs %d", i, len(jw), len(bw))
			}
			for j := range jw {
				if math.Float64bits(jw[j]) != math.Float64bits(bw[j]) {
					t.Fatalf("req %d: weight %d diverged: %v vs %v", i, j, jw[j], bw[j])
				}
			}
		default: // ping (no JSON analog; must simply succeed)
			if err := bc.Ping(); err != nil {
				t.Fatalf("req %d: ping: %v", i, err)
			}
		}
		ops++
	}
	if ops != requests {
		t.Fatalf("ran %d ops, want %d", ops, requests)
	}

	jb := checkpointBytes(t, jsrv)
	bb := checkpointBytes(t, bsrv)
	if !bytes.Equal(jb, bb) {
		t.Fatalf("checkpoint bytes diverged after identical request streams "+
			"(%d vs %d bytes) — the protocols are not serving the same model", len(jb), len(bb))
	}
	if lb := bareCheckpointBytes(t, bare); !bytes.Equal(jb, lb) {
		t.Fatalf("served checkpoint (%d bytes) differs from a bare learner fed the same "+
			"batches (%d bytes) — the apply path changed the model", len(jb), len(lb))
	}
}

// TestConformanceErrorClasses drives the same malformed request through
// both protocols and requires the same error class: HTTP 400 on the JSON
// side must be StatusBadRequest on the binary side, and neither rejection
// may touch the backend.
func TestConformanceErrorClasses(t *testing.T) {
	for _, backend := range conformanceBackends {
		t.Run(backend, func(t *testing.T) { testConformanceErrorClasses(t, backend) })
	}
}

func testConformanceErrorClasses(t *testing.T, backend string) {
	jc, bc, jsrv, bsrv := conformancePair(t, backend)

	badUpdatePayload := func(build func() []byte) func() (byte, error) {
		return func() (byte, error) { return binDo(bc, wire.OpUpdate, build()) }
	}
	badEstimatePayload := func(build func() []byte) func() (byte, error) {
		return func() (byte, error) { return binDo(bc, wire.OpEstimate, build()) }
	}

	cases := []struct {
		name string
		json func() int
		bin  func() (byte, error)
	}{
		{
			name: "bad label",
			json: func() int {
				code, _ := jc.postRaw("/v1/update", []byte(`{"examples":[{"y":7,"x":[{"i":1,"v":1}]}]}`), nil)
				return code
			},
			bin: badUpdatePayload(func() []byte {
				p := []byte{0x01, 0x02} // one example, label byte 2
				p = append(p, 0x01)     // nnz 1
				p = append(p, 0x01)     // index 1
				var b [8]byte
				return append(p, b[:]...)
			}),
		},
		{
			name: "non-finite value",
			json: func() int {
				code, _ := jc.postRaw("/v1/update", []byte(`{"examples":[{"y":1,"x":[{"i":1,"v":1e999}]}]}`), nil)
				return code
			},
			bin: badUpdatePayload(func() []byte {
				p := []byte{0x01, 0x01, 0x01, 0x01}
				var b [8]byte
				bits := math.Float64bits(math.Inf(1))
				for i := 0; i < 8; i++ {
					b[i] = byte(bits >> (8 * i))
				}
				return append(p, b[:]...)
			}),
		},
		{
			name: "empty batch",
			json: func() int {
				code, _ := jc.postRaw("/v1/update", []byte(`{"examples":[]}`), nil)
				return code
			},
			bin: badUpdatePayload(func() []byte { return []byte{0x00} }),
		},
		{
			name: "trailing garbage",
			json: func() int {
				code, _ := jc.postRaw("/v1/update", []byte(`{"examples":[{"y":1,"x":[]}]} trailing`), nil)
				return code
			},
			bin: badUpdatePayload(func() []byte {
				p, err := wire.AppendUpdateRequest(nil, []stream.Example{{Y: 1}})
				if err != nil {
					t.Fatal(err)
				}
				return append(p, 0xEE)
			}),
		},
		{
			name: "empty estimate",
			json: func() int {
				code, _ := jc.postRaw("/v1/estimate", []byte(`{"indices":[]}`), nil)
				return code
			},
			bin: badEstimatePayload(func() []byte { return []byte{0x00} }),
		},
		{
			name: "oversize estimate",
			json: func() int {
				var sb strings.Builder
				sb.WriteString(`{"indices":[`)
				for i := 0; i <= maxEstimateBatch; i++ {
					if i > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, "%d", i)
				}
				sb.WriteString(`]}`)
				code, _ := jc.postRaw("/v1/estimate", []byte(sb.String()), nil)
				return code
			},
			bin: badEstimatePayload(func() []byte {
				// Declared count over the limit; the decoder must reject on
				// the count alone, before any index bytes are needed.
				var p []byte
				v := uint64(wire.MaxEstimateIndices + 1)
				for v >= 0x80 {
					p = append(p, byte(v)|0x80)
					v >>= 7
				}
				return append(p, byte(v))
			}),
		},
	}

	for _, tc := range cases {
		code := tc.json()
		if code != http.StatusBadRequest {
			t.Errorf("%s: JSON path answered HTTP %d, want 400", tc.name, code)
		}
		status, err := tc.bin()
		if err != nil {
			t.Errorf("%s: binary path failed at the transport level: %v", tc.name, err)
			continue
		}
		if status != wire.StatusBadRequest {
			t.Errorf("%s: binary path answered status %d, want StatusBadRequest — "+
				"error classes diverge", tc.name, status)
		}
	}

	// Rejected requests must leave both backends in their initial state:
	// that of a bare learner that was never fed.
	for _, srv := range []*Server{jsrv, bsrv} {
		if v, _ := srv.MetricsRegistry().Value("wmcore_updates_applied_total"); v != 0 {
			t.Errorf("a rejected update reached a backend (%v applied)", v)
		}
	}
	fresh := bareCheckpointBytes(t, newBareLearner(t, backend))
	if !bytes.Equal(checkpointBytes(t, jsrv), fresh) || !bytes.Equal(checkpointBytes(t, bsrv), fresh) {
		t.Error("rejected requests changed a backend's checkpoint")
	}
}

// binDo sends one raw payload and waits for its status, without the typed
// client wrappers (which refuse to encode malformed requests).
func binDo(cl *wire.Client, op byte, payload []byte) (byte, error) {
	call, err := cl.Go(op, payload, nil)
	if err != nil {
		return 0, err
	}
	if err := cl.Flush(); err != nil {
		return 0, err
	}
	status, _, err := call.Wait()
	return status, err
}
