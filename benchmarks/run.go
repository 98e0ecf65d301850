package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
)

// config is one run of one workload.
type config struct {
	w        *workload
	seed     int64
	windows  int           // measurement windows of an untraced run
	window   time.Duration // length of one
	warmup   int           // windows run and thrown away first
	setups   int           // set-ups timed for setup_s, at least
	recovers int           // recoveries timed for recover_ms, at least
	fill     time.Duration // cheap set-ups and recoveries repeat until this long has passed
	trace    bool
	ladder   int    // operations per ladder rung (traced runs)
	outDir   string // where a traced run leaves its span file
}

// outcome is what a run hands back: every metric by name, and the count of
// operations (and post-crash key checks) that were attempted and that failed.
type outcome struct {
	values    map[string]float64
	attempted uint64
	failed    uint64
}

func run(cfg config) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}

	// Set-up, several times over so that one slow page-fault storm does not
	// decide setup_s; the last one is kept and used.
	var sys *system
	var setupS []float64
	for begun := time.Now(); moreReps(len(setupS), cfg.setups, begun, cfg.fill); {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
		}
		t0 := time.Now()
		s, err := setUp(cfg.w)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		sys = s
	}
	defer sys.close()

	ver := newVersions(cfg.w.keys)
	cl := newClients(sys, cfg.seed, ver)
	count := func(ph *phase) {
		out.attempted += ph.attempted
		out.failed += ph.failed
	}

	ph, err := sys.runPhase(cl, cfg.warmup, cfg.window, false)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	count(ph)

	windows := cfg.windows
	if cfg.trace {
		// A traced run splits its time between an untraced phase, the same
		// phase traced, and the ladder.
		windows = max(cfg.windows/3, 2)
	}
	runtime.GC()
	ph, err = sys.runPhase(cl, windows, cfg.window, false)
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	count(ph)
	memMiB := residentMiB()
	fmt.Printf("# ops/s per window: %.0f\n", ph.winOps)

	var tracedPh *phase
	if cfg.trace {
		if cfg.w.wire {
			sys.stopServing()
			if err := sys.serve(obs.NewSpanRecorder(nil, clientRing), clients); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		if tracedPh, err = sys.runPhase(cl, windows, cfg.window, true); err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
		count(tracedPh)
	}

	// Quiesce, then the correctness gate: crash, recover, check every key.
	sys.stopServing()
	live := float64(cfg.w.keys * (keyLen + cfg.w.valSize))
	var heapBytes, heapTop, usedMiB float64
	for i := 0; i < sys.st.NumShards(); i++ {
		a := sys.st.Engine(i).AllocStats()
		heapBytes += float64(a.AllocatedBytes)
		heapTop += float64(a.TopOffset)
		usedMiB += float64(sys.st.Engine(i).Watermark()) / (1 << 20)
	}
	rec, err := sys.crashRecoverVerify(ver, cfg.recovers, cfg.fill)
	if err != nil {
		return nil, err
	}
	out.attempted += rec.checked
	out.failed += rec.failed

	v := out.values
	if !cfg.trace {
		v["setup_s"] = median(setupS)
		v["ops_per_s"] = ph.opsPerS
		v["write_p50_us"], v["write_p90_us"] = ph.write[0], ph.write[1]
		v["read_p50_us"], v["read_p90_us"] = ph.read[0], ph.read[1]
		v["media_bytes_per_user_byte"] = ph.delta.per(cBytesPersisted, ph.userBytes)
		v["pm_bytes_per_user_byte"] = heapBytes / live
		v["recover_ms"] = rec.medianMs
		v["mem_mb"] = memMiB
		return out, nil
	}

	lad, err := runLadder(cfg.w, cfg.seed, cfg.ladder)
	if err != nil {
		return nil, err
	}
	d, writes := ph.delta, ph.writes
	v["pmem.persist_ns"] = lad.persistNs
	v["pmem.pwbs_per_write"] = d.per(cPwbs, writes)
	v["pmem.fences_per_write"] = d.per(cFences, writes)
	v["pmem.lines_persisted_per_write"] = d.per(cLinesPersisted, writes)
	v["pmem.ladder_pwbs_per_put"] = lad.pwbsPerPut
	v["pmem.ladder_fences_per_put"] = lad.fencesPerPut
	v["core.update_ns"], v["core.read_ns"] = lad.coreUpdateNs, lad.coreReadNs
	v["core.self_ns"] = lad.coreUpdateNs - lad.persistNs
	v["core.replicated_bytes_per_write"] = d.per(cReplicatedBytes, writes)
	v["core.replicate_extents_per_write"] = d.per(cReplicateExtents, writes)
	v["core.ops_per_batch"] = d.per(cBatchOps, d[cBatches])
	v["core.combined_share"] = d.per(cCombined, d[cBatchOps])
	v["alloc.allocs_per_write"] = d.per(cHeapAllocs, writes)
	v["alloc.heap_bytes_per_user_byte"] = heapTop / live
	v["kvstore.put_ns"], v["kvstore.get_ns"] = lad.kvPutNs, lad.kvGetNs
	v["kvstore.self_ns"] = lad.kvPutNs - lad.coreUpdateNs
	v["shard.put_ns"], v["shard.get_ns"] = lad.shardPutNs, lad.shardGetNs
	v["shard.self_ns"] = lad.shardPutNs - lad.kvPutNs
	v["shard.xwrite_ns"] = lad.xwriteNs
	v["shard.xshard_commits"] = float64(d[cXCommits])
	v["shard.reopen_ms_per_mib"] = div(rec.medianMs, usedMiB)
	v["server.submit_ns"] = lad.submitNs
	v["server.group_self_ns"] = lad.submitNs - lad.shardPutNs
	v["server.ops_per_group_batch"] = d.per(cGroupOps, d[cGroupBatches])
	v["server.solo_reruns"] = float64(d[cSoloRuns])
	v["server.wire_set_ns"], v["server.wire_get_ns"] = lad.wireSetNs, lad.wireGetNs
	v["server.wire_self_ns"] = lad.wireSetNs - lad.submitNs
	for phase, ns := range lad.spanPhaseNs {
		v["server.span_"+phase+"_ns"] = ns
	}
	v["client.write_p99_us"], v["client.read_p99_us"] = ph.write[2], ph.read[2]
	v["client.cpu_us_per_op"] = d.per(cCPUNs, ph.acked) / 1e3
	v["runtime.allocs_per_op"] = d.per(cMallocs, ph.attempted)
	v["runtime.alloc_bytes_per_op"] = d.per(cMallocBytes, ph.attempted)
	v["runtime.gc_cycles"] = float64(d[cGCCycles])
	v["runtime.gc_pause_us"] = float64(d[cGCPauseNs]) / 1e3
	v["bench.trace_overhead_pct"] = 100 * (1 - div(tracedPh.opsPerS, ph.opsPerS))
	v["bench.window_iqr_pct"] = 100 * iqrShare(ph.winOps)

	return out, writeTrace(cfg, append(lad.spans, tracedPh.spans...))
}

// moreReps decides whether a repeated timing takes another repetition: always
// up to atLeast, then only while the repetitions so far took less than fill
// (so that a 4 ms recovery is timed a few hundred times, a 300 ms one nine).
func moreReps(done, atLeast int, begun time.Time, fill time.Duration) bool {
	return done < atLeast || done < maxReps && time.Since(begun) < fill
}

const maxReps = 301

// writeTrace leaves the run's spans in <outDir>/trace-<workload>.json.
func writeTrace(cfg config, spans []span) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.w.name, cfg.seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace-"+cfg.w.name+".json"), b, 0o644)
}
