// Package obshttp is romulusd's observability HTTP surface (-http): one mux
// for /metrics, /trace, /audit, /healthz and /readyz (plus opt-in
// /debug/pprof), and a graceful http.Server wrapper that surfaces bind
// errors synchronously instead of dying silently in a goroutine.
//
// Endpoint summary (docs/OBSERVABILITY.md is the full reference):
//
//	GET /metrics                 text counters (obs.WriteText)
//	GET /metrics?format=json     one JSON object
//	GET /metrics?format=prom     Prometheus exposition (counters, gauges,
//	                             cumulative-le histograms)
//	                             all three with the go_* runtime gauges,
//	                             read from runtime/metrics per scrape
//	GET /trace                   retained request spans as JSON lines
//	GET /trace?req=<id>          one request's span timeline as a JSON
//	                             array (404 once evicted from the ring)
//	GET /audit                   durability auditor summaries (503 until
//	                             one is attached; ?format=json)
//	GET /healthz                 liveness: always 200 once serving
//	GET /readyz                  readiness: 200, or 503 + reason from the
//	                             Ready hook (e.g. quarantined shards)
package obshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"strconv"

	"repro/internal/audit"
	"repro/internal/obs"
)

// Sources names the live objects the mux serves. Registry is required; the
// other routes register only when their source is non-nil. Function fields
// are consulted per request.
type Sources struct {
	// Registry is the metrics registry /metrics serves (required).
	Registry *obs.Registry
	// Spans, when non-nil, serves the retained request spans as JSON lines
	// on /trace and one request's timeline on /trace?req=<id>.
	Spans *obs.SpanRecorder
	// Auditors, when non-nil, serves every live durability auditor on
	// /audit (one summary per shard). Nil entries are skipped; the route
	// answers 503 while none remain.
	Auditors func() []*audit.Auditor
	// Ready, when non-nil, gates /readyz: a non-nil error answers 503 with
	// the error text as the reason. Nil means "ready once serving".
	Ready func() error
	// Pprof registers net/http/pprof under /debug/pprof/ (off by default:
	// profiling endpoints expose goroutine stacks and should be opted
	// into, not ambient).
	Pprof bool
}

// NewMux builds the shared mux. Callers add their own routes (e.g.
// romulusd's /stats) on the returned mux.
func NewMux(src Sources) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		r := src.Registry
		readRuntime(r)
		switch req.URL.Query().Get("format") {
		case "json":
			w.Header().Set("Content-Type", "application/json")
			r.WriteJSON(w)
		case "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			r.WriteProm(w)
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			r.WriteText(w)
		}
	})
	if spans := src.Spans; spans != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
			if q := req.URL.Query().Get("req"); q != "" {
				id, err := strconv.ParseUint(q, 10, 64)
				if err != nil {
					http.Error(w, "req must be a request id", http.StatusBadRequest)
					return
				}
				tl := spans.ByReq(id)
				if len(tl) == 0 {
					http.Error(w, fmt.Sprintf("no retained spans for req %d", id), http.StatusNotFound)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				enc.Encode(tl)
				return
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			spans.WriteJSON(w)
		})
	}
	if src.Auditors != nil {
		auditors := src.Auditors
		mux.HandleFunc("/audit", func(w http.ResponseWriter, req *http.Request) {
			var live []*audit.Auditor
			for _, a := range auditors() {
				if a != nil {
					live = append(live, a)
				}
			}
			if len(live) == 0 {
				http.Error(w, "no auditor attached (run with -audit)", http.StatusServiceUnavailable)
				return
			}
			// Summary reads shadow state only — safe against a live store.
			if req.URL.Query().Get("format") == "json" {
				w.Header().Set("Content-Type", "application/json")
				if len(live) == 1 {
					live[0].Summary().WriteJSON(w)
					return
				}
				reps := make([]*audit.Report, len(live))
				for i, a := range live {
					reps[i] = a.Summary()
				}
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				enc.Encode(reps)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for i, a := range live {
				if len(live) > 1 {
					fmt.Fprintf(w, "== auditor %d ==\n", i)
				}
				a.Summary().WriteText(w)
			}
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if src.Ready != nil {
			if err := src.Ready(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	})
	if src.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// runtimeSeries maps the runtime/metrics series readRuntime reads to the
// gauge each sets; a histogram sets name_p50, name_p90 and name_p99.
var runtimeSeries = [...]struct{ series, name string }{
	{"/sched/goroutines:goroutines", "go_goroutines"},
	{"/sched/latencies:seconds", "go_sched_latency_ns"},
	{"/sched/pauses/total/gc:seconds", "go_gc_pause_ns"},
	{"/gc/heap/live:bytes", "go_heap_live_bytes"},
}

// readRuntime sets r's go_* gauges from runtime/metrics: the goroutine
// count, quantiles of scheduling latency (runnable to running, the cost of
// a wake-up) and of GC stop-the-world pauses since the process started, in
// nanoseconds, and the heap the last GC marked live. It runs per scrape, so
// nothing on a serving path pays for it. A series the runtime does not
// export is skipped.
func readRuntime(r *obs.Registry) {
	var s [len(runtimeSeries)]metrics.Sample
	for i, m := range runtimeSeries {
		s[i].Name = m.series
	}
	metrics.Read(s[:])
	for i, x := range s {
		name := runtimeSeries[i].name
		switch x.Value.Kind() {
		case metrics.KindUint64:
			r.Gauge(name).Set(int64(x.Value.Uint64()))
		case metrics.KindFloat64Histogram:
			h := x.Value.Float64Histogram()
			r.Gauge(name + "_p50").Set(quantileNs(h, 0.50))
			r.Gauge(name + "_p90").Set(quantileNs(h, 0.90))
			r.Gauge(name + "_p99").Set(quantileNs(h, 0.99))
		}
	}
}

// quantileNs returns the q-quantile of a runtime histogram of seconds in
// nanoseconds: the upper edge of the bucket that holds it (the lower edge
// of an unbounded last bucket), or 0 for an empty histogram.
func quantileNs(h *metrics.Float64Histogram, q float64) int64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	rank, cum := uint64(math.Ceil(q*float64(total))), uint64(0)
	for i, c := range h.Counts {
		if cum += c; c > 0 && cum >= rank {
			edge := h.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = h.Buckets[i]
			}
			return int64(edge * 1e9)
		}
	}
	return 0
}

// Server is a listening http.Server with graceful shutdown.
type Server struct {
	srv  *http.Server
	ln   net.Listener
	errc chan error
}

// Listen binds addr and starts serving h in the background. The bind happens
// HERE, so an unusable address fails the caller immediately; errors from the
// serve loop itself arrive on Err.
func Listen(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		srv:  &http.Server{Handler: h},
		ln:   ln,
		errc: make(chan error, 1),
	}
	go func() {
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.errc <- err
		}
		close(s.errc)
	}()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Err delivers serve-loop errors; it closes when the server stops.
func (s *Server) Err() <-chan error { return s.errc }

// Shutdown gracefully drains in-flight requests until ctx expires.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }
