package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/obs"
)

// TestMiddlewareCountsEveryRoute drives one request at every registered
// pattern and asserts the middleware recorded a status-code class and a
// latency observation under that route's labels — so a route can never be
// added without instrumentation (registration and instrumentation are the
// same call).
func TestMiddlewareCountsEveryRoute(t *testing.T) {
	srv, err := New(testOptions(t, BackendAWM))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	patterns := srv.RoutePatterns()
	if len(patterns) < 15 {
		t.Fatalf("only %d instrumented routes registered: %v", len(patterns), patterns)
	}
	for _, pattern := range patterns {
		method, path, ok := strings.Cut(pattern, " ")
		if !ok {
			t.Fatalf("pattern %q is not METHOD PATH", pattern)
		}
		req := httptest.NewRequest(method, path, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		reg := srv.MetricsRegistry()
		total := 0.0
		for _, class := range codeClasses {
			if v, ok := reg.Value("wmserve_http_requests_total", pattern, class); ok {
				total += v
			}
		}
		if total < 1 {
			t.Errorf("%s: no request counted under route label (status was %d)", pattern, rec.Code)
		}
		if n, ok := reg.Value("wmserve_http_request_duration_seconds", pattern); !ok || n < 1 {
			t.Errorf("%s: no latency observation under route label", pattern)
		}
	}
	if v, _ := srv.MetricsRegistry().Value("wmserve_http_in_flight_requests"); v != 0 {
		t.Errorf("in-flight gauge %v after all requests returned, want 0", v)
	}
}

// TestMiddlewareClassesAndErrors pins the class/error accounting: a good
// update is a 2xx, a malformed one a 4xx, and neither counts as an error.
func TestMiddlewareClassesAndErrors(t *testing.T) {
	srv, err := New(testOptions(t, BackendAWM))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	do := func(body string) int {
		req := httptest.NewRequest("POST", "/v1/update", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := do(`{"example":{"y":1,"x":[{"i":3,"v":1.5}]}}`); code != http.StatusOK {
		t.Fatalf("good update: HTTP %d", code)
	}
	if code := do(`{"example":{"y":7}}`); code != http.StatusBadRequest {
		t.Fatalf("bad label: HTTP %d, want 400", code)
	}

	reg := srv.MetricsRegistry()
	const route = "POST /v1/update"
	if v, _ := reg.Value("wmserve_http_requests_total", route, "2xx"); v != 1 {
		t.Errorf("2xx count %v, want 1", v)
	}
	if v, _ := reg.Value("wmserve_http_requests_total", route, "4xx"); v != 1 {
		t.Errorf("4xx count %v, want 1", v)
	}
	if v, ok := reg.Value("wmserve_http_request_errors_total", route); ok && v != 0 {
		t.Errorf("error count %v, want 0 (4xx is the client's fault)", v)
	}
	if v, _ := reg.Value("wmcore_updates_applied_total"); v != 1 {
		t.Errorf("updates applied %v, want 1", v)
	}
	if v, _ := reg.Value("wmserve_http_body_bytes_total", route, "in"); v <= 0 {
		t.Errorf("no request-body bytes counted for %s", route)
	}
	if v, _ := reg.Value("wmserve_http_body_bytes_total", route, "out"); v <= 0 {
		t.Errorf("no response-body bytes counted for %s", route)
	}
}

// requireFamilies GETs /metrics from srv through the instrumented mux,
// validates the whole exposition with the obs checker, and fails for each
// named family it lacks.
func requireFamilies(t *testing.T, srv *Server, names ...string) {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	families, err := obs.CheckText(rec.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, fam := range names {
		if _, ok := families[fam]; !ok {
			t.Errorf("family %q missing from the exposition (%d families present)", fam, len(families))
		}
	}
}

// TestMetricsEndpoint drives HTTP and binary traffic at every backend,
// then scrapes GET /metrics: the exposition must parse line by line and
// declare every serving, core and binary-protocol family.
func TestMetricsEndpoint(t *testing.T) {
	for _, backend := range backends() {
		t.Run(backend, func(t *testing.T) {
			srv, addr := newBinServer(t, backend, BinOptions{}, nil)
			hs := httptest.NewServer(srv)
			defer hs.Close()
			gen := datagen.RCV1Like(21)
			if code := doJSON(t, "POST", hs.URL+"/v1/update", UpdateRequest{Examples: toWire(gen.Take(256))}, nil); code != 200 {
				t.Fatalf("update: HTTP %d", code)
			}
			probe := gen.Next().X
			if code := doJSON(t, "POST", hs.URL+"/v1/predict", PredictRequest{X: vecWire(probe)}, nil); code != 200 {
				t.Fatalf("predict: HTTP %d", code)
			}
			if code := doJSON(t, "GET", hs.URL+"/v1/estimate?i=3", nil, nil); code != 200 {
				t.Fatalf("estimate: HTTP %d", code)
			}
			if code := doJSON(t, "POST", hs.URL+"/v1/checkpoint", CheckpointRequest{Action: "save"}, nil); code != 200 {
				t.Fatalf("checkpoint save: HTTP %d", code)
			}
			if code := doJSON(t, "POST", hs.URL+"/v1/checkpoint", CheckpointRequest{Action: "restore"}, nil); code != 200 {
				t.Fatalf("checkpoint restore: HTTP %d", code)
			}
			cl := dialBin(t, addr)
			if _, _, err := cl.Update(gen.Take(256)); err != nil {
				t.Fatalf("binary update: %v", err)
			}
			if _, _, err := cl.Predict(probe); err != nil {
				t.Fatalf("binary predict: %v", err)
			}

			requireFamilies(t, srv,
				"wmserve_http_in_flight_requests",
				"wmserve_http_requests_total",
				"wmserve_http_request_duration_seconds",
				"wmserve_http_body_bytes_total",
				"wmserve_predicts_total",
				"wmserve_estimates_total",
				"wmserve_uptime_seconds",
				"wmcore_updates_applied_total",
				"wmcore_update_batch_size",
				"wmcore_checkpoint_saves_total",
				"wmcore_checkpoint_restores_total",
				"wmcore_steps",
				"wmcore_memory_bytes",
				"wmbin_connections_total",
				"wmbin_connections_open",
				"wmbin_requests_total",
				"wmbin_request_duration_seconds",
				"wmbin_bytes_total",
				"wmbin_in_flight_requests",
			)
		})
	}
}
