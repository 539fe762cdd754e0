package serve

// This file is the service's HTTP introspection surface: a handler
// exposing the pool's live state — Prometheus metrics, health, recent
// request traces in Chrome-trace form, and the kept traces — without
// touching the evaluation hot path (every endpoint reads counters,
// callback gauges, or immutable published span trees).

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"dfg/internal/metrics"
	"dfg/internal/obs"
	"dfg/internal/perfdb"
)

// Handler returns the pool's introspection endpoint:
//
//	GET /healthz        liveness + basic counts (JSON); 503 once closed
//	GET /metrics        Prometheus text exposition (version 0.0.4)
//	GET /trace?last=N   the last N request traces as Chrome-trace JSON
//	                    (open in Perfetto / chrome://tracing); default 16
//	GET /trace/{id}     one kept or recent trace by trace ID — the IDs on
//	                    /slow and in perf records resolve here (text, or
//	                    ?format=json for the span tree)
//	GET /slow?last=N    the last N kept span trees as text: errored,
//	                    degraded, retried or rerouted requests, those at
//	                    or above SlowThreshold, and the running slowest 5%
//	GET /debug/pprof/*  Go's profiling handlers (Config.EnablePprof)
//
// The handler stays valid after Close — it then serves the pool's final,
// frozen state, so an operator can still pull metrics and traces from a
// drained service.
func (p *Pool) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", p.handleHealthz)
	mux.HandleFunc("/metrics", p.handleMetrics)
	mux.HandleFunc("/trace", p.handleTrace)
	mux.HandleFunc("/trace/", p.handleTraceByID)
	mux.HandleFunc("/slow", p.handleSlow)
	if p.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleHealthz reports liveness. A closed pool answers 503 so load
// balancers drain it, but still includes the final counters.
func (p *Pool) handleHealthz(w http.ResponseWriter, r *http.Request) {
	p.sendMu.RLock()
	closed := p.closed
	p.sendMu.RUnlock()
	st := p.Stats()
	status, code := "ok", http.StatusOK
	if closed {
		status, code = "closed", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, `{"status":%q,"workers":%d,"uptime_seconds":%.3f,"served":%d,"failed":%d,"expired":%d,"rejected":%d,"queue_depth":%d}`+"\n",
		status, st.Workers, p.uptime().Seconds(), st.Served, st.Failed, st.Expired, st.Rejected, len(p.queue))
}

// handleMetrics writes the Prometheus exposition.
func (p *Pool) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WritePrometheus(w, p.reg); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

// lastParam parses ?last=N (default 16) for a traced pool, answering
// the request itself, and reporting false, when it cannot.
func (p *Pool) lastParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	if !p.traced(w) {
		return 0, false
	}
	n := 16
	if s := r.URL.Query().Get("last"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			http.Error(w, "bad ?last= value", http.StatusBadRequest)
			return 0, false
		}
		n = v
	}
	return n, true
}

// traced answers 404, and reports false, when tracing is disabled.
func (p *Pool) traced(w http.ResponseWriter) bool {
	if p.tracer == nil {
		http.Error(w, "tracing disabled (TraceKeep < 0)", http.StatusNotFound)
	}
	return p.tracer != nil
}

// handleTrace serves recent request traces as Chrome-trace JSON.
func (p *Pool) handleTrace(w http.ResponseWriter, r *http.Request) {
	n, ok := p.lastParam(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = metrics.WriteSpanTraces(w, p.tracer.Last(n))
}

// handleTraceByID serves one kept or recent trace — /trace/{id} —
// resolving the trace IDs that /slow lines, perf-database records and
// flight-dump traces carry. Text by default; ?format=json returns the
// span tree in the flight-dump SpanDump shape.
func (p *Pool) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if !p.traced(w) {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/trace/")
	if id == "" {
		http.Error(w, "missing trace id", http.StatusBadRequest)
		return
	}
	sp := p.tracer.ByID(id)
	if sp == nil {
		http.Error(w, "trace "+id+" not kept (aged out or never existed)", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(perfdb.DumpSpan(sp))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "trace %s (%v)\n", id, sp.Duration())
	sp.WriteText(w)
}

// handleSlow renders the kept span trees as text.
func (p *Pool) handleSlow(w http.ResponseWriter, r *http.Request) {
	n, ok := p.lastParam(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	kept := p.tracer.Kept(n)
	if len(kept) == 0 {
		fmt.Fprintln(w, "no traces kept")
		return
	}
	for _, sp := range kept {
		fmt.Fprintf(w, "--- %v trace_id=%s\n", sp.Duration(), sp.ID())
		sp.WriteText(w)
	}
}

// ListenAndServe starts the introspection endpoint on addr and returns
// the bound address (useful with ":0") plus a shutdown func. It is a
// convenience for cmd/dfg-serve; embedders can mount Handler anywhere.
func (p *Pool) ListenAndServe(addr string) (string, func() error, error) {
	srv := &http.Server{Handler: p.Handler(), ReadHeaderTimeout: 5 * time.Second}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
