// Command romulusd serves the sharded persistent KV store over TCP: a
// line-oriented, pipelined protocol (PING, GET, SET, DEL, INCR/DECR,
// EXPIRE/TTL, MULTI…EXEC, STATS, SCRUB, QUIT; the wire contract is
// docs/PROTOCOL.md) on -addr. Clients may stream many commands before
// reading replies; replies come back strictly in order.
//
// Writes from all connections group-commit: the connection that finds a
// shard idle merges every queued operation into one durable transaction, so
// N concurrent writers share a durability round instead of paying N psyncs.
// A batch holds at most 256 operations; nothing waits for more, so batches
// form under load with no idle latency.
//
// Keys hash-partition across -shards independent Romulus engines (-engine
// rom|romlog|romlr); multi-key MULTI batches that span shards commit through
// a durable two-phase record and are atomic across crashes. With -dir the
// shard and coordinator images persist across restarts (loaded on startup,
// written on shutdown). With -http an observability endpoint serves
// /metrics (shard_*, xshard_*, net_* series; ?format=prom for Prometheus),
// /stats (JSON snapshot), /healthz, /readyz (503 while shards are
// quarantined), with -audit /audit, with -spans /trace (request timelines:
// /trace?req=<id>), and with -pprof the Go profiling endpoints.
//
// Each shard's device reserves a small pmem-backed flight recorder
// (-blackbox, on by default): group-commit batch starts and commits are
// fenced onto a ring in the reserved tail, recovered and printed on the next
// startup — a crash-surviving record of what was in flight. -spans
// additionally assigns every request a server-wide id and traces its phases
// (parse, queue_wait, batch_form, psync_wait, reply_flush) through the
// group-commit pipeline; see docs/OBSERVABILITY.md.
//
// A shard whose device reports a media fault is quarantined instead of
// served: its commands answer "UNAVAIL shard=N" while the other shards keep
// working, and "SCRUB <n>" re-formats and readmits it once the operator has
// dealt with the medium (the shard's data is lost and reported, never served
// corrupt). -idle-timeout drops connections with no complete command for the
// given duration; -max-batch bounds the MULTI queue per connection ("ERR
// batch too large" beyond it).
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight commands
// finish and flush their replies, then the store closes (saving images).
// Every acknowledged write is durable before its reply, so a drain or crash
// after the ack never loses it.
//
//	romulusd -addr :6380 -shards 4 -engine romlog -dir /tmp/romulusd -http :8080
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obshttp"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", ":6380", "TCP listen address for the KV protocol")
	shards := flag.Int("shards", 4, "number of hash partitions (fixed at store creation)")
	engine := flag.String("engine", "romlog", "Romulus engine per shard: rom, romlog or romlr")
	region := flag.Int("region", 8<<20, "persistent heap bytes per twin copy per shard")
	dir := flag.String("dir", "", "image directory for persistence across restarts (empty: in-memory)")
	httpAddr := flag.String("http", "", "serve /metrics and /stats on this address (e.g. :8080)")
	auditFlag := flag.Bool("audit", false, "attach durability auditors to every shard and the coordinator")
	drainTimeout := flag.Duration("drain", 5*time.Second, "graceful shutdown budget before connections are closed forcibly")
	idleTimeout := flag.Duration("idle-timeout", 0, "drop connections idle for this long between commands (0: never)")
	maxBatch := flag.Int("max-batch", 0, "maximum queued ops per MULTI batch (0 or negative: default 4096)")
	spansFlag := flag.Bool("spans", false, "trace every request's phase timeline (net_span_* histograms, /trace?req=<id>)")
	spanRing := flag.Int("span-ring", 4096, "span events retained for /trace (with -spans)")
	blackboxFlag := flag.Bool("blackbox", true, "reserve a pmem flight recorder per shard (batch starts/commits survive crashes)")
	pprofFlag := flag.Bool("pprof", false, "serve Go profiling endpoints under /debug/pprof (with -http)")
	flag.Parse()

	variant, err := parseVariant(*engine)
	exitOn(err)

	reg := obs.NewRegistry()
	st, err := shard.Open(shard.Options{
		Shards:     *shards,
		RegionSize: *region,
		Variant:    variant,
		Dir:        *dir,
		Metrics:    reg,
		Audit:      *auditFlag,
		Blackbox:   *blackboxFlag,
	})
	exitOn(err)

	// What reopening each shard's image found and repaired (nothing to say
	// about a freshly formatted one).
	for i := 0; i < st.NumShards(); i++ {
		eng := st.Engine(i)
		if eng == nil {
			continue // quarantined at open
		}
		if rs := eng.RecoveryStats(); rs.State != 0 || rs.Compared > 0 {
			fmt.Printf("romulusd: shard %d recovery: %s\n", i, rs)
		}
	}

	// A prior run's flight data, replayed from the reserved tails: what was
	// in flight when that run ended (or crashed).
	for _, rep := range st.FlightReports() {
		if rep != nil && !rep.Empty() {
			fmt.Printf("romulusd: flight recorder: %s\n", rep)
		}
	}

	var spans *obs.SpanRecorder
	if *spansFlag {
		spans = obs.NewSpanRecorder(reg, *spanRing)
	}
	srv := server.New(st, server.Options{
		Registry:    reg,
		IdleTimeout: *idleTimeout,
		MaxBatchOps: *maxBatch,
		Spans:       spans,
	})

	if *httpAddr != "" {
		src := obshttp.Sources{
			Registry: reg,
			Spans:    spans,
			Pprof:    *pprofFlag,
			Ready: func() error {
				if q := st.Quarantined(); len(q) > 0 {
					return fmt.Errorf("%d shard(s) quarantined: %v", len(q), q)
				}
				return nil
			},
		}
		if *auditFlag {
			src.Auditors = st.Auditors
		}
		mux := obshttp.NewMux(src)
		mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(srv.StatsReply())
		})
		hs, err := obshttp.Listen(*httpAddr, mux)
		exitOn(err)
		defer hs.Shutdown(context.Background())
		fmt.Printf("romulusd: observability on http://%s (/metrics, /stats, /healthz, /readyz)\n", hs.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	exitOn(err)
	fmt.Printf("romulusd: serving %d shards (%s) on %s\n", st.NumShards(), variant, ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case sig := <-sigc:
		fmt.Printf("romulusd: %v, draining connections (%v budget)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "romulusd: drain incomplete:", err)
		}
		<-done
	case err := <-done:
		exitOn(err)
	}
	exitOn(st.Close())
	fmt.Println("romulusd: store closed cleanly")
	if n := st.ViolationCount(); n > 0 {
		exitOn(fmt.Errorf("%d durability violation(s) recorded", n))
	}
}

func parseVariant(s string) (core.Variant, error) {
	switch s {
	case "rom":
		return core.Rom, nil
	case "romlog":
		return core.RomLog, nil
	case "romlr":
		return core.RomLR, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want rom, romlog or romlr)", s)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "romulusd:", err)
		os.Exit(1)
	}
}
