package obshttp

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/pmem"
)

// startMux serves mux on loopback and returns a GET helper; shutdown is
// registered as cleanup.
func startMux(t *testing.T, mux http.Handler) func(path string) (int, string) {
	t.Helper()
	s, err := Listen("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err, ok := <-s.Err(); ok && err != nil {
			t.Errorf("serve loop: %v", err)
		}
	})
	return func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}
}

// TestMuxRoutes pins the endpoint layout: text and JSON metrics, ndjson
// trace (registered only with a span source), and the auditor route's
// 503-until-attached behavior.
func TestMuxRoutes(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("demo_total").Add(3)
	var aud atomic.Pointer[audit.Auditor]

	if code, _ := startMux(t, NewMux(Sources{Registry: reg}))("/trace"); code != http.StatusNotFound {
		t.Fatalf("/trace without spans = %d, want 404", code)
	}
	get := startMux(t, NewMux(Sources{
		Registry: reg,
		Spans:    obs.NewSpanRecorder(reg, 16),
		Auditors: func() []*audit.Auditor { return []*audit.Auditor{aud.Load()} },
	}))

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "demo_total 3") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get("/metrics?format=json"); code != 200 || !strings.Contains(body, `"demo_total"`) {
		t.Fatalf("/metrics?format=json = %d %q", code, body)
	}
	if code, _ := get("/trace"); code != 200 {
		t.Fatalf("/trace = %d", code)
	}
	if code, _ := get("/audit"); code != http.StatusServiceUnavailable {
		t.Fatalf("/audit without auditor = %d, want 503", code)
	}

	dev := pmem.New(4096, pmem.ModelDRAM)
	aud.Store(audit.New(dev))
	if code, body := get("/audit"); code != 200 || body == "" {
		t.Fatalf("/audit with auditor = %d %q", code, body)
	}
}

// TestListenBindErrorIsSynchronous pins the reason this wrapper exists: an
// unusable address fails the caller, not a background goroutine.
func TestListenBindErrorIsSynchronous(t *testing.T) {
	s, err := Listen("127.0.0.1:0", http.NewServeMux())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Listen(s.Addr(), http.NewServeMux()); err == nil {
		t.Fatal("second bind on the same address succeeded")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

// TestTraceReqTimeline pins the /trace?req=<id> view: the request's spans as
// one JSON array, 404 for unknown/evicted ids, 400 for garbage.
func TestTraceReqTimeline(t *testing.T) {
	reg := obs.NewRegistry()
	spans := obs.NewSpanRecorder(reg, 64)
	spans.Emit(obs.SpanEvent{Req: 7, Op: "set", Phase: obs.PhaseParse, DurNs: 10})
	spans.Emit(obs.SpanEvent{Req: 7, Op: "set", Phase: obs.PhasePsyncWait, DurNs: 90, Shard: 2, BatchSeq: 5})
	spans.Emit(obs.SpanEvent{Req: 7, Op: "set", Phase: obs.PhaseRequest, DurNs: 120})
	spans.Emit(obs.SpanEvent{Req: 8, Op: "get", Phase: obs.PhaseRequest, DurNs: 3})

	get := startMux(t, NewMux(Sources{
		Registry: reg,
		Spans:    spans,
	}))

	code, body := get("/trace?req=7")
	if code != 200 {
		t.Fatalf("/trace?req=7 = %d %q", code, body)
	}
	var tl []obs.SpanEvent
	if err := json.Unmarshal([]byte(body), &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl) != 3 || tl[1].Phase != obs.PhasePsyncWait || tl[1].Shard != 2 || tl[1].BatchSeq != 5 {
		t.Fatalf("timeline = %+v", tl)
	}
	if code, _ := get("/trace?req=999"); code != http.StatusNotFound {
		t.Fatalf("/trace?req=999 = %d, want 404", code)
	}
	if code, _ := get("/trace?req=bogus"); code != http.StatusBadRequest {
		t.Fatalf("/trace?req=bogus = %d, want 400", code)
	}
	// Plain /trace includes the spans as ndjson.
	if code, body := get("/trace"); code != 200 || !strings.Contains(body, `"phase":"psync_wait"`) {
		t.Fatalf("/trace = %d %q", code, body)
	}
}

// TestMetricsPromFormat pins the prom endpoint end to end: exposition
// content type and the cumulative bucket rendering.
func TestMetricsPromFormat(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("ops_total").Add(5)
	reg.Histogram("lat_ns").Observe(3)

	get := startMux(t, NewMux(Sources{Registry: reg}))
	code, body := get("/metrics?format=prom")
	if code != 200 {
		t.Fatalf("/metrics?format=prom = %d", code)
	}
	for _, want := range []string{
		"# TYPE ops_total counter",
		"ops_total 5",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="3"} 1`,
		`lat_ns_bucket{le="+Inf"} 1`,
		"lat_ns_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom exposition lacks %q:\n%s", want, body)
		}
	}
}

// TestHealthReady pins the ops probes: /healthz is unconditional liveness,
// /readyz consults the hook and surfaces its reason on 503.
func TestHealthReady(t *testing.T) {
	var notReady atomic.Bool
	get := startMux(t, NewMux(Sources{
		Registry: obs.NewRegistry(),
		Ready: func() error {
			if notReady.Load() {
				return &quarantineErr{}
			}
			return nil
		},
	}))
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz = %d %q", code, body)
	}
	notReady.Store(true)
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "quarantined") {
		t.Fatalf("/readyz degraded = %d %q, want 503 naming the quarantine", code, body)
	}
}

type quarantineErr struct{}

func (*quarantineErr) Error() string { return "1 shard quarantined" }

// TestMultiAuditor pins the sharded /audit view: every live auditor renders,
// nils are skipped, and format=json yields an array.
func TestMultiAuditor(t *testing.T) {
	a0 := audit.New(pmem.New(4096, pmem.ModelDRAM))
	a2 := audit.New(pmem.New(4096, pmem.ModelDRAM))
	get := startMux(t, NewMux(Sources{
		Registry: obs.NewRegistry(),
		Auditors: func() []*audit.Auditor { return []*audit.Auditor{a0, nil, a2} },
	}))
	if code, body := get("/audit"); code != 200 || strings.Count(body, "audit report") != 2 {
		t.Fatalf("/audit = %d %q, want two summaries", code, body)
	}
	code, body := get("/audit?format=json")
	if code != 200 {
		t.Fatalf("/audit?format=json = %d", code)
	}
	var reps []json.RawMessage
	if err := json.Unmarshal([]byte(body), &reps); err != nil || len(reps) != 2 {
		t.Fatalf("json array = %v (err %v), want 2 reports", len(reps), err)
	}
}

// TestPprofGate pins that profiling routes exist only behind the flag.
func TestPprofGate(t *testing.T) {
	reg := obs.NewRegistry()
	getOff := startMux(t, NewMux(Sources{Registry: reg}))
	if code, _ := getOff("/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without Pprof = %d, want 404", code)
	}
	getOn := startMux(t, NewMux(Sources{Registry: reg, Pprof: true}))
	if code, body := getOn("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ with Pprof = %d", code)
	}
}

// TestConcurrentScrapeWhileEmitting drives /metrics, /trace and
// /trace?req=<id> while a workload emits spans — the race
// detector (make obstest runs this package under -race) proves the
// observability surface is safe against a live server.
func TestConcurrentScrapeWhileEmitting(t *testing.T) {
	reg := obs.NewRegistry()
	spans := obs.NewSpanRecorder(reg, 128)
	get := startMux(t, NewMux(Sources{
		Registry: reg,
		Spans:    spans,
	}))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ops := reg.Counter("emit_total")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ops.Inc()
				req := uint64(g*10000 + i)
				spans.Emit(obs.SpanEvent{Req: req, Op: "set", Phase: obs.PhaseParse, DurNs: 1})
				spans.Emit(obs.SpanEvent{Req: req, Op: "set", Phase: obs.PhaseRequest, DurNs: 2})
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		if code, _ := get("/metrics?format=prom"); code != 200 {
			t.Errorf("/metrics scrape %d failed: %d", i, code)
		}
		if code, _ := get("/trace"); code != 200 {
			t.Errorf("/trace scrape %d failed: %d", i, code)
		}
		get("/trace?req=3") // may 404 (evicted); must not race or crash
	}
	close(stop)
	wg.Wait()
}

// TestMetricsRuntimeHealth: every /metrics format carries the go_* runtime
// gauges — goroutines, scheduling-latency and GC-pause quantiles, the live
// heap — read at scrape time into the served registry.
func TestMetricsRuntimeHealth(t *testing.T) {
	reg := obs.NewRegistry()
	get := startMux(t, NewMux(Sources{Registry: reg}))
	runtime.GC() // a pause to quantile and a marked live heap
	names := []string{"go_goroutines", "go_heap_live_bytes"}
	for _, h := range []string{"go_sched_latency_ns", "go_gc_pause_ns"} {
		names = append(names, h+"_p50", h+"_p90", h+"_p99")
	}
	_, text := get("/metrics")
	for _, name := range names {
		if !strings.Contains(text, "\n"+name+" ") && !strings.HasPrefix(text, name+" ") {
			t.Errorf("text /metrics lacks %s:\n%s", name, text)
		}
	}
	_, js := get("/metrics?format=json")
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(js), &snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("JSON /metrics lacks gauge %s", name)
		}
	}
	if snap.Gauges["go_goroutines"] < 1 || snap.Gauges["go_heap_live_bytes"] < 1 || snap.Gauges["go_gc_pause_ns_p99"] < 1 {
		t.Errorf("goroutines %d, live heap %d B, GC pause p99 %d ns: want each positive after a GC",
			snap.Gauges["go_goroutines"], snap.Gauges["go_heap_live_bytes"], snap.Gauges["go_gc_pause_ns_p99"])
	}
	if p50, p99 := snap.Gauges["go_sched_latency_ns_p50"], snap.Gauges["go_sched_latency_ns_p99"]; p50 > p99 {
		t.Errorf("scheduling latency p50 %d ns above p99 %d ns", p50, p99)
	}
	_, prom := get("/metrics?format=prom")
	for _, name := range names {
		if !strings.Contains(prom, "# TYPE "+name+" gauge\n") {
			t.Errorf("prom /metrics lacks gauge %s", name)
		}
	}
}
