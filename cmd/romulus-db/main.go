// Command romulus-db regenerates Figure 8 of the Romulus paper: the
// LevelDB db_bench workloads (fillseq, fillsync, fillrandom, overwrite,
// readseq, readreverse, fill-100k) on RomulusDB and on the bundled
// LevelDB-style baseline, reporting microseconds per operation.
//
// The paper uses one million operations per thread; the default here is
// 100,000 for a quick pass (-n 1000000 for full fidelity).
//
// With -http ADDR an expvar-style observability endpoint serves the live
// RomulusDB store for the duration of the run: GET /metrics returns the
// current registry (text; ?format=json for JSON), GET /trace returns the
// retained per-transaction events as JSON lines. Each workload/thread
// combination opens a fresh store, so /metrics reflects the store of the
// currently running data point; /trace spans the whole run.
//
// With -audit a durability auditor chains onto each RomulusDB store: any
// durability violation aborts the run, audit_* counters join /metrics, and
// GET /audit serves the live auditor's summary (text; ?format=json).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/bench"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/obshttp"
)

func main() {
	n := flag.Int("n", 100_000, "operations per thread (fillsync/fill100k cap at 1,000)")
	threads := flag.String("threads", "1,2,4", "comma-separated thread counts")
	workloads := flag.String("workloads", strings.Join(bench.DBWorkloads, ","), "workloads to run")
	dbs := flag.String("dbs", "romdb,leveldb", "stores to benchmark")
	dir := flag.String("dir", "", "scratch directory for leveldb files (default: temp)")
	httpAddr := flag.String("http", "", "serve /metrics, /trace and /audit for the live romdb store on this address (e.g. :8080)")
	auditFlag := flag.Bool("audit", false, "chain a durability auditor onto each romdb store; violations abort the run")
	flag.Parse()

	ths, err := bench.ParseInts(*threads)
	exitOn(err)
	scratch := *dir
	if scratch == "" {
		scratch, err = os.MkdirTemp("", "romulus-db-*")
		exitOn(err)
		defer os.RemoveAll(scratch)
	}

	// Each data point opens a fresh store, so the endpoint serves whichever
	// registry the current RunDBBenchObs call is populating; the trace ring
	// is shared across the run. The auditor likewise follows the live store.
	var cur atomic.Pointer[obs.Registry]
	var curAud atomic.Pointer[audit.Auditor]
	var ring *obs.RingSink
	if *httpAddr != "" {
		ring = obs.NewRingSink(4096)
		cur.Store(obs.NewRegistry())
		// The shared observability mux (same layout romulusd serves): bind
		// errors fail the run up front instead of dying in a goroutine, and
		// in-flight scrapes drain before exit.
		mux := obshttp.NewMux(obshttp.Sources{
			Registry: func() *obs.Registry { return cur.Load() },
			Trace:    ring,
			Auditors: func() []*audit.Auditor { return []*audit.Auditor{curAud.Load()} },
		})
		hs, err := obshttp.Listen(*httpAddr, mux)
		exitOn(err)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			hs.Shutdown(ctx)
			cancel()
		}()
		go func() {
			if err := <-hs.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "romulus-db: http:", err)
			}
		}()
		fmt.Printf("observability endpoint on %s (/metrics, /trace, /audit)\n", hs.Addr())
	}

	for _, w := range strings.Split(*workloads, ",") {
		w = strings.TrimSpace(w)
		t := bench.NewTable(append([]string{"db \\ threads"}, header(ths)...)...)
		for _, db := range strings.Split(*dbs, ",") {
			db = strings.TrimSpace(db)
			row := []any{db}
			for i, th := range ths {
				var reg *obs.Registry
				var sink obs.Sink
				if *httpAddr != "" && db == "romdb" {
					reg = obs.NewRegistry()
					cur.Store(reg)
					sink = ring
				}
				var onOpen func(*kvstore.DB)
				if *auditFlag && db == "romdb" {
					reg := reg
					onOpen = func(kdb *kvstore.DB) {
						a := audit.New(kdb.Engine().Device(), audit.Options{})
						a.Attach()
						kdb.SetAuditor(a)
						if reg != nil {
							a.PublishMetrics(reg)
						}
						curAud.Store(a)
					}
				}
				res, err := bench.RunDBBenchHook(db, w, filepath.Join(scratch, fmt.Sprintf("%s-%s-%d", db, w, i)), th, *n, reg, sink, onOpen)
				exitOn(err)
				if a := curAud.Load(); a != nil {
					if nv := a.ViolationCount(); nv > 0 {
						exitOn(fmt.Errorf("%s/%s threads=%d: auditor found %d durability violation(s)", db, w, th, nv))
					}
				}
				row = append(row, res.MicrosPerOp)
			}
			t.Row(row...)
		}
		unit := "µs/op"
		if w == "fill100k" {
			unit = "µs/op (100 kB values)"
		}
		fmt.Printf("Figure 8 — %s (%s, %d ops/thread)\n%s\n", w, unit, *n, t)
	}
}

func header(ths []int) []string {
	out := make([]string, len(ths))
	for i, t := range ths {
		out[i] = fmt.Sprintf("%d", t)
	}
	return out
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "romulus-db:", err)
		os.Exit(1)
	}
}
