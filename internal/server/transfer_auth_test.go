package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/linear"
)

// TestCheckpointDownloadUploadRoundTrip: download a trained node's state,
// upload it into a fresh node, and verify the fresh node answers exactly
// like the original — restore without shared disk.
func TestCheckpointDownloadUploadRoundTrip(t *testing.T) {
	for _, backend := range backends() {
		t.Run(backend, func(t *testing.T) {
			_, source := newTestServer(t, backend)
			gen := datagen.RCV1Like(11)
			if code := doJSON(t, "POST", source.URL+"/v1/update",
				UpdateRequest{Examples: toWire(gen.Take(1200))}, nil); code != 200 {
				t.Fatalf("update: HTTP %d", code)
			}
			doJSON(t, "POST", source.URL+"/v1/sync", struct{}{}, nil)

			resp, err := http.Get(source.URL + "/v1/checkpoint/download")
			if err != nil {
				t.Fatal(err)
			}
			blob, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("download: HTTP %d", resp.StatusCode)
			}
			if len(blob) == 0 {
				t.Fatal("empty checkpoint")
			}

			_, target := newTestServer(t, backend)
			up, err := http.Post(target.URL+"/v1/checkpoint/upload", "application/octet-stream", bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(up.Body)
			up.Body.Close()
			if up.StatusCode != http.StatusOK {
				t.Fatalf("upload: HTTP %d: %s", up.StatusCode, body)
			}

			var srcTop, dstTop TopKResponse
			if code := doJSON(t, "GET", source.URL+"/v1/topk?k=16", nil, &srcTop); code != 200 {
				t.Fatalf("source topk: HTTP %d", code)
			}
			if code := doJSON(t, "GET", target.URL+"/v1/topk?k=16", nil, &dstTop); code != 200 {
				t.Fatalf("target topk: HTTP %d", code)
			}
			if len(srcTop.Features) == 0 {
				t.Fatal("source served no top-k")
			}
			for i := range srcTop.Features {
				if srcTop.Features[i] != dstTop.Features[i] {
					t.Fatalf("top-k[%d] differs after transfer: %+v vs %+v",
						i, dstTop.Features[i], srcTop.Features[i])
				}
			}
			var src, dst EstimateResponse
			probe := srcTop.Features[0].I
			doJSON(t, "GET", fmt.Sprintf("%s/v1/estimate?i=%d", source.URL, probe), nil, &src)
			doJSON(t, "GET", fmt.Sprintf("%s/v1/estimate?i=%d", target.URL, probe), nil, &dst)
			if src.Weights[0] != dst.Weights[0] {
				t.Fatalf("estimate differs after transfer: %v vs %v", dst.Weights[0], src.Weights[0])
			}
		})
	}
}

// TestCheckpointUploadReportsConsumedBytes: the upload response counts the
// checkpoint bytes the loader consumed, both for a body with a
// Content-Length and for a chunked one streamed from an io.Pipe, whose
// length is unknown (-1) to the handler.
func TestCheckpointUploadReportsConsumedBytes(t *testing.T) {
	_, source := newTestServer(t, BackendSharded)
	if code := doJSON(t, "POST", source.URL+"/v1/update",
		UpdateRequest{Examples: toWire(datagen.RCV1Like(5).Take(300))}, nil); code != 200 {
		t.Fatalf("update: HTTP %d", code)
	}
	resp, err := http.Get(source.URL + "/v1/checkpoint/download")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("download: HTTP %d, %v", resp.StatusCode, err)
	}

	_, target := newTestServer(t, BackendSharded)
	for _, tc := range []struct {
		name string
		body func() io.Reader
	}{
		{"content-length", func() io.Reader { return bytes.NewReader(blob) }},
		{"chunked", func() io.Reader {
			pr, pw := io.Pipe()
			go func() {
				_, err := pw.Write(blob)
				pw.CloseWithError(err)
			}()
			return pr
		}},
	} {
		up, err := http.Post(target.URL+"/v1/checkpoint/upload", "application/octet-stream", tc.body())
		if err != nil {
			t.Fatal(err)
		}
		var cr CheckpointResponse
		err = json.NewDecoder(up.Body).Decode(&cr)
		up.Body.Close()
		if err != nil || up.StatusCode != http.StatusOK {
			t.Fatalf("%s upload: HTTP %d, %v", tc.name, up.StatusCode, err)
		}
		if cr.Bytes != int64(len(blob)) {
			t.Fatalf("%s upload reported %d bytes, want %d", tc.name, cr.Bytes, len(blob))
		}
	}
}

// TestCheckpointUploadRejectsGarbage: corrupt bodies must not replace the
// backend.
func TestCheckpointUploadRejectsGarbage(t *testing.T) {
	_, hs := newTestServer(t, BackendAWM)
	doJSON(t, "POST", hs.URL+"/v1/update", UpdateRequest{
		Example: &ExampleJSON{Y: 1, X: []FeatureJSON{{I: 3, V: 1}}},
	}, nil)

	resp, err := http.Post(hs.URL+"/v1/checkpoint/upload", "application/octet-stream",
		bytes.NewReader([]byte("definitely not a checkpoint")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload: HTTP %d, want 400", resp.StatusCode)
	}
	// The old model must still be serving.
	var st StatsResponse
	if code := doJSON(t, "GET", hs.URL+"/v1/stats", nil, &st); code != 200 || st.Steps != 1 {
		t.Fatalf("backend lost after rejected upload: code %d, %+v", code, st)
	}
}

// TestCheckpointUploadRejectsCorruptCheckpoints: a checkpoint whose heap
// repeats a key, one followed by trailing bytes, and one whose λ the
// server's constant learning-rate schedule cannot run with are each
// refused with 400, and the old model keeps serving. The pristine
// checkpoint then uploads, so the corruptions cause the refusals.
func TestCheckpointUploadRejectsCorruptCheckpoints(t *testing.T) {
	for _, backend := range backends() {
		t.Run(backend, func(t *testing.T) {
			_, source := newTestServer(t, backend)
			if code := doJSON(t, "POST", source.URL+"/v1/update",
				UpdateRequest{Examples: toWire(datagen.RCV1Like(11).Take(1200))}, nil); code != 200 {
				t.Fatalf("update: HTTP %d", code)
			}
			resp, err := http.Get(source.URL + "/v1/checkpoint/download")
			if err != nil {
				t.Fatal(err)
			}
			blob, _ := io.ReadAll(resp.Body)
			resp.Body.Close()

			// A model's heap starts 56 bytes in, after λ at 20; a sharded
			// checkpoint's first model follows its 24-byte header.
			model := 0
			if backend == BackendSharded {
				model = 24
			}
			repeated := append([]byte(nil), blob...)
			copy(repeated[model+56+12:], repeated[model+56:model+56+4])
			bigLambda := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint64(bigLambda[model+20:], math.Float64bits(4))

			opt := testOptions(t, backend)
			opt.Config.Schedule = linear.Constant{Eta0: 0.5}
			srv, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			target := httptest.NewServer(srv)
			t.Cleanup(func() {
				target.Close()
				_ = srv.Close()
			})
			doJSON(t, "POST", target.URL+"/v1/update", UpdateRequest{
				Example: &ExampleJSON{Y: 1, X: []FeatureJSON{{I: 3, V: 1}}},
			}, nil)

			for _, c := range []struct {
				name string
				body []byte
				want int
			}{
				{"repeated heap key", repeated, http.StatusBadRequest},
				{"trailing bytes", append(append([]byte(nil), blob...), "trailing garbage"...), http.StatusBadRequest},
				{"lambda beyond the constant schedule", bigLambda, http.StatusBadRequest},
				{"pristine", blob, http.StatusOK},
			} {
				up, err := http.Post(target.URL+"/v1/checkpoint/upload", "application/octet-stream", bytes.NewReader(c.body))
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				msg, _ := io.ReadAll(up.Body)
				up.Body.Close()
				if up.StatusCode != c.want {
					t.Fatalf("%s: HTTP %d (%s), want %d", c.name, up.StatusCode, msg, c.want)
				}
				var st StatsResponse
				if c.want == http.StatusBadRequest {
					if code := doJSON(t, "GET", target.URL+"/v1/stats", nil, &st); code != 200 || st.Steps != 1 {
						t.Fatalf("%s: backend changed by a rejected upload: code %d, %+v", c.name, code, st)
					}
				}
			}
		})
	}
}

func newAuthServer(t *testing.T, token string) *httptest.Server {
	t.Helper()
	opt := testOptions(t, BackendAWM)
	opt.AuthToken = token
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		_ = srv.Close()
	})
	return hs
}

// TestAuthTokenGatesMutatingEndpoints: without (or with a wrong) bearer
// token every mutating endpoint must 401; with it, they work; read-only
// endpoints stay open throughout.
func TestAuthTokenGatesMutatingEndpoints(t *testing.T) {
	const token = "sekrit-cluster-token"
	hs := newAuthServer(t, token)

	mutating := []struct {
		method, path, ct, body string
	}{
		{"POST", "/v1/update", "application/json", `{"example":{"y":1,"x":[{"i":3,"v":1}]}}`},
		{"POST", "/v1/update", "application/x-ndjson", `{"y":1,"x":[{"i":3,"v":1}]}`},
		{"POST", "/v1/checkpoint", "application/json", `{"action":"save"}`},
		{"POST", "/v1/checkpoint/upload", "application/octet-stream", "x"},
		{"POST", "/v1/sync", "application/json", "{}"},
	}
	send := func(m, path, ct, body, auth string) int {
		req, err := http.NewRequest(m, hs.URL+path, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ct)
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, m := range mutating {
		if code := send(m.method, m.path, m.ct, m.body, ""); code != http.StatusUnauthorized {
			t.Fatalf("%s %s (%s) without token: HTTP %d, want 401", m.method, m.path, m.ct, code)
		}
		if code := send(m.method, m.path, m.ct, m.body, "Bearer wrong-token"); code != http.StatusUnauthorized {
			t.Fatalf("%s %s with wrong token: HTTP %d, want 401", m.method, m.path, code)
		}
		if code := send(m.method, m.path, m.ct, m.body, "Basic "+token); code != http.StatusUnauthorized {
			t.Fatalf("%s %s with non-bearer scheme: HTTP %d, want 401", m.method, m.path, code)
		}
	}
	// The correct token unlocks updates (and the model actually trains).
	if code := send("POST", "/v1/update", "application/json",
		`{"example":{"y":1,"x":[{"i":3,"v":1}]}}`, "Bearer "+token); code != http.StatusOK {
		t.Fatalf("authorized update: HTTP %d", code)
	}
	// Read-only endpoints never require the token.
	for _, path := range []string{"/v1/stats", "/v1/topk?k=4", "/v1/estimate?i=3", "/healthz", "/v1/checkpoint/download"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read-only %s with no token: HTTP %d", path, resp.StatusCode)
		}
	}
}
