package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/blackbox"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
)

// startServerWith starts a caller-built Server on a fresh loopback listener
// (startServer builds its own Server; span tests need to pass Options).
func startServerWith(t *testing.T, srv *Server) (net.Addr, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr(), done
}

func shutdown(t *testing.T, srv *Server, done chan error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestSpanTimeline pins the tentpole end to end: a pipelined burst of SETs
// through a traced server yields, for each request id, the full phase
// timeline — parse, queue_wait, batch_form, psync_wait, reply_flush and the
// covering request span — with the committing shard and batch seq stamped on
// the group-commit phases. Reads emit only the phases they actually have.
func TestSpanTimeline(t *testing.T) {
	st := newTestStore(t)
	defer st.Close()
	reg := obs.NewRegistry()
	rec := obs.NewSpanRecorder(reg, 1024)
	srv := New(st, Options{Registry: reg, Spans: rec})
	addr, done := startServerWith(t, srv)

	cl := dial(t, addr)
	// Pipeline: write the whole burst before reading any reply, so writes
	// genuinely queue behind one another and share batches.
	const n = 16
	var req strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&req, "SET k%d v%d\n", i, i)
	}
	req.WriteString("GET k0\n")
	if _, err := cl.c.Write([]byte(req.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if line, err := cl.r.ReadString('\n'); err != nil || strings.TrimSpace(line) != "OK" {
			t.Fatalf("SET %d reply %q (err %v)", i, line, err)
		}
	}
	if line, err := cl.r.ReadString('\n'); err != nil || strings.TrimSpace(line) != "VALUE v0" {
		t.Fatalf("GET reply %q (err %v)", line, err)
	}
	// The connection emits a request's spans only after the flush that
	// carried its reply returns, so a reply in hand does not mean the spans
	// are recorded yet; a drained server has emitted everything.
	shutdown(t, srv, done)

	// Every SET's timeline is fully reconstructable by request id.
	writePhases := []string{
		obs.PhaseParse, obs.PhaseQueueWait, obs.PhaseBatchForm,
		obs.PhasePsyncWait, obs.PhaseReplyFlush, obs.PhaseRequest,
	}
	var sets, gets int
	for _, ev := range rec.Events() {
		if ev.Phase != obs.PhaseRequest {
			continue
		}
		tl := rec.ByReq(ev.Req)
		switch ev.Op {
		case "set", "get": // "get": a GET that rode its shard's commit queue
			if ev.Op == "set" {
				sets++
			} else {
				gets++
			}
			if len(tl) != len(writePhases) {
				t.Fatalf("req %d (%s): %d phases %+v, want %d", ev.Req, ev.Op, len(tl), tl, len(writePhases))
			}
			for i, want := range writePhases {
				if tl[i].Phase != want {
					t.Fatalf("req %d phase[%d] = %q, want %q", ev.Req, i, tl[i].Phase, want)
				}
			}
			// Group-commit phases carry their routing: a real shard and the
			// batch that committed the write.
			if tl[3].Shard < 0 || tl[3].Shard >= st.NumShards() || tl[3].BatchSeq == 0 {
				t.Fatalf("req %d psync_wait span missing routing: %+v", ev.Req, tl[3])
			}
			// Phases tile the request: starts are monotone (the covering
			// request span restarts at t0, so skip it).
			for i := 1; i < len(tl)-1; i++ {
				if tl[i].StartNs < tl[i-1].StartNs {
					t.Fatalf("req %d phases out of order: %+v", ev.Req, tl)
				}
			}
		case "GET":
			gets++
			if len(tl) != 3 || tl[0].Phase != obs.PhaseParse || tl[1].Phase != obs.PhaseReplyFlush || tl[2].Phase != obs.PhaseRequest {
				t.Fatalf("req %d (get): phases %+v, want parse/reply_flush/request", ev.Req, tl)
			}
		}
	}
	if sets != n || gets != 1 {
		t.Fatalf("saw %d set / %d get request spans, want %d / 1", sets, gets, n)
	}

	// Each phase fed its histogram family.
	snap := reg.Snapshot()
	for _, h := range []string{
		"net_span_parse_ns", "net_span_queue_wait_ns", "net_span_batch_form_ns",
		"net_span_psync_wait_ns", "net_span_reply_flush_ns", "net_span_request_ns",
	} {
		if snap.Histograms[h].Count == 0 {
			t.Errorf("%s never observed", h)
		}
	}
}

// TestSpansOffNoEmission pins the default: without Options.Spans nothing is
// traced and the pipeline carries no span state.
func TestSpansOffNoEmission(t *testing.T) {
	st := newTestStore(t)
	defer st.Close()
	srv, addr, done := startServer(t, st)
	cl := dial(t, addr)
	cl.must(t, "SET a 1", "OK")
	cl.must(t, "GET a", "VALUE 1")
	if srv.spans != nil {
		t.Fatal("spans recorder present without Options.Spans")
	}
	shutdown(t, srv, done)
}

// TestCommitterFlightRecords pins the blackbox bracket around group commit:
// on a store with flight recorders, every server write leaves a durable
// BatchStart/BatchCommit pair on its shard's ring, with the start record
// naming the first traced request of the batch.
func TestCommitterFlightRecords(t *testing.T) {
	st, err := shard.Open(shard.Options{
		Shards: 2, RegionSize: 512 << 10, CoordSize: 64 << 10,
		Variant: core.RomLog, Blackbox: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	srv := New(st, Options{Registry: reg, Spans: obs.NewSpanRecorder(reg, 64)})
	addr, done := startServerWith(t, srv)

	cl := dial(t, addr)
	cl.must(t, "SET fk fv", "OK")
	// Quiesce the server before reading the ring directly (Inspect
	// bypasses the store's writer mutex).
	shutdown(t, srv, done)

	sh := st.ShardFor([]byte("fk"))
	eng := st.Engine(sh)
	off, size := eng.ReservedTail()
	rep := blackbox.Inspect(eng.Device(), off, size)
	if rep.Empty() || rep.MaxBatchStarted == 0 || rep.MaxBatchCommitted != rep.MaxBatchStarted {
		t.Fatalf("flight report after SET = %s, want started == committed > 0", rep)
	}
	var sawReq bool
	for _, r := range rep.Records {
		if r.Kind == blackbox.KindBatchStart && r.Req != 0 {
			sawReq = true
		}
	}
	if !sawReq {
		t.Fatalf("no BatchStart record carries a request id: %+v", rep.Records)
	}
}

// TestStatsReplyShape pins the STATS wire object: the flattened shard.Stats
// plus uptime_secs, quarantined_shards (always a list) and the group_commit
// section, with batch counters that move once a write committed.
func TestStatsReplyShape(t *testing.T) {
	st := newTestStore(t)
	defer st.Close()
	srv, addr, done := startServer(t, st)
	cl := dial(t, addr)
	cl.must(t, "SET s 1", "OK")
	got, err := cl.do("STATS")
	if err != nil || !strings.HasPrefix(got, "STATS {") {
		t.Fatalf("STATS reply %q (err %v)", got, err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(strings.TrimPrefix(got, "STATS ")), &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"shards", "pairs", "per_shard", "uptime_secs", "quarantined_shards", "group_commit"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("STATS object lacks %q: %s", key, got)
		}
	}
	if string(m["quarantined_shards"]) != "[]" {
		t.Fatalf("quarantined_shards = %s, want []", m["quarantined_shards"])
	}
	var g GroupStats
	if err := json.Unmarshal(m["group_commit"], &g); err != nil {
		t.Fatal(err)
	}
	if g.Batches == 0 || g.BatchOps == 0 || g.MeanBatchOps <= 0 {
		t.Fatalf("group_commit counters flat after a SET: %+v", g)
	}
	if len(g.QueueDepth) != st.NumShards() {
		t.Fatalf("queue_depth has %d entries, want %d", len(g.QueueDepth), st.NumShards())
	}
	shutdown(t, srv, done)
}
