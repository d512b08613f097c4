package server

import (
	"net/http"
	"net/http/pprof"
)

// DebugMux builds the debug surface served on the -debug-addr listener:
// the Prometheus exposition, the net/http/pprof suite, and the flight
// recorder's trace endpoints. It is deliberately NOT part of the
// instrumented API mux — a debug scrape must never perturb the request
// metrics or the recorder it is inspecting.
//
//	GET /metrics               Prometheus text exposition
//	GET /debug/pprof/...       net/http/pprof suite
//	GET /debug/traces          recent kept traces, newest first
//	GET /debug/traces/slowest  slow/error ring, worst offenders first
func (s *Server) DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.met.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/traces", s.tracer.ServeRecent)
	mux.HandleFunc("GET /debug/traces/slowest", s.tracer.ServeSlowest)
	return mux
}
