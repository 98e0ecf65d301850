package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/shard"
)

// startServerOpts is startServer with explicit Options.
func startServerOpts(t *testing.T, st *shard.Store, opts Options) (*Server, net.Addr, chan error) {
	t.Helper()
	srv := New(st, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, ln.Addr(), done
}

// TestServerIdleTimeout pins the per-connection idle read deadline: an idle
// connection is closed after the timeout, while an active one survives many
// multiples of it.
func TestServerIdleTimeout(t *testing.T) {
	st := newTestStore(t)
	defer st.Close()
	srv, addr, done := startServerOpts(t, st, Options{IdleTimeout: 100 * time.Millisecond})

	active := dial(t, addr)
	idle := dial(t, addr)
	idle.c.SetReadDeadline(time.Now().Add(5 * time.Second))

	// The active client keeps issuing commands across > 10 idle windows.
	deadline := time.Now().Add(1200 * time.Millisecond)
	for time.Now().Before(deadline) {
		active.must(t, "PING", "PONG")
		time.Sleep(50 * time.Millisecond)
	}

	// The idle client must have been disconnected (EOF on its next read).
	if _, err := idle.r.ReadByte(); err == nil {
		t.Fatal("idle connection still open after > 10 idle windows")
	}
	active.must(t, "QUIT", "BYE")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestServerBatchBound pins the MULTI queue bound: the op that would exceed
// MaxBatchOps answers "ERR batch too large" and discards the batch. A
// MaxBatchOps that is not positive means DefaultMaxBatchOps: no setting
// leaves the queue unbounded.
func TestServerBatchBound(t *testing.T) {
	for _, tc := range []struct {
		name       string
		opt, bound int
	}{
		{"explicit", 4, 4},
		{"negative", -1, DefaultMaxBatchOps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newTestStore(t)
			defer st.Close()
			srv, addr, done := startServerOpts(t, st, Options{MaxBatchOps: tc.opt})

			cl := dial(t, addr)
			cl.must(t, "MULTI", "OK")
			for i := 0; i < tc.bound; i++ {
				cl.must(t, fmt.Sprintf("SET bk-%d v%d", i, i), fmt.Sprintf("QUEUED %d", i+1))
			}
			cl.must(t, fmt.Sprintf("SET bk-%d over", tc.bound), "ERR batch too large")
			// The batch was discarded with the error: EXEC has no MULTI to
			// commit, and none of the queued keys were applied.
			if got, _ := cl.do("EXEC"); !strings.HasPrefix(got, "ERR") {
				t.Fatalf("EXEC after overflow: %q, want ERR (batch discarded)", got)
			}
			cl.must(t, "GET bk-0", "NOTFOUND")
			// A fresh MULTI within the bound still commits.
			cl.must(t, "MULTI", "OK")
			cl.must(t, "SET ok-key ok-val", "QUEUED 1")
			cl.must(t, "EXEC", "OK 1")
			cl.must(t, "GET ok-key", "VALUE ok-val")
			cl.must(t, "QUIT", "BYE")

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			<-done
		})
	}
}

// TestServerDegradedModeAndScrub is the end-to-end degraded-mode scenario:
// a shard is quarantined by sticky media faults mid-traffic; romulusd keeps
// serving every healthy shard, answers the faulted shard's keys with the
// typed UNAVAIL reply, and SCRUB re-formats and readmits the shard — with
// no acknowledged write on a healthy shard lost at any point.
func TestServerDegradedModeAndScrub(t *testing.T) {
	st, err := shard.Open(shard.Options{
		Shards:     4,
		RegionSize: 512 << 10,
		CoordSize:  64 << 10,
		Variant:    core.RomLog,
		Audit:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, addr, done := startServerOpts(t, st, Options{})
	cl := dial(t, addr)

	// Find a victim-shard key and populate it with a large value whose
	// interior lines we can poison, plus healthy-shard keys on every other
	// shard.
	const victim = 1
	var vKey string
	for i := 0; ; i++ {
		k := fmt.Sprintf("vk-%04d", i)
		if st.ShardFor([]byte(k)) == victim {
			vKey = k
			break
		}
	}
	bigVal := strings.Repeat("z", 4096)
	cl.must(t, "SET "+vKey+" "+bigVal, "OK")
	healthy := map[string]string{}
	for i := 0; len(healthy) < 24; i++ {
		k := fmt.Sprintf("hk-%04d", i)
		if st.ShardFor([]byte(k)) == victim {
			continue
		}
		healthy[k] = fmt.Sprintf("hv-%04d", i)
		cl.must(t, "SET "+k+" "+healthy[k], "OK")
	}

	// Poison the value's interior lines on the victim shard's device.
	dev := st.Devices()[victim]
	img := dev.Persisted()
	off := bytes.Index(img, []byte(bigVal))
	if off < 0 {
		t.Fatal("value not found in victim shard image")
	}
	for o := off + pmem.LineSize; o < off+len(bigVal)-pmem.LineSize; o += pmem.LineSize {
		dev.MarkBad(o, false)
	}

	// The faulted key answers with the typed UNAVAIL reply and quarantines
	// the shard; every healthy shard keeps serving its acknowledged writes.
	reply, err := cl.do("GET " + vKey)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, fmt.Sprintf("UNAVAIL shard=%d", victim)) {
		t.Fatalf("GET on faulted shard: %q, want UNAVAIL shard=%d prefix", reply, victim)
	}
	if reply, _ := cl.do("SET " + vKey + " nope"); !strings.HasPrefix(reply, "UNAVAIL shard=") {
		t.Fatalf("SET on quarantined shard: %q, want UNAVAIL", reply)
	}
	for k, v := range healthy {
		cl.must(t, "GET "+k, "VALUE "+v)
	}
	cl.must(t, "SET during-quarantine dq", "OK") // healthy writes keep landing
	if st.ShardFor([]byte("during-quarantine")) == victim {
		t.Fatal("test key routed to victim; pick another key")
	}

	// SCRUB readmits the shard: old victim data is reported lost (NOTFOUND,
	// never a wrong value), new writes land, healthy data all still present.
	cl.must(t, fmt.Sprintf("SCRUB %d", victim), "OK")
	cl.must(t, "GET "+vKey, "NOTFOUND")
	cl.must(t, "SET "+vKey+" reborn", "OK")
	cl.must(t, "GET "+vKey, "VALUE reborn")
	for k, v := range healthy {
		cl.must(t, "GET "+k, "VALUE "+v)
	}
	cl.must(t, "GET during-quarantine", "VALUE dq")
	if reply, _ := cl.do(fmt.Sprintf("SCRUB %d", victim)); !strings.HasPrefix(reply, "ERR") {
		t.Fatalf("SCRUB of healthy shard: %q, want ERR", reply)
	}
	cl.must(t, "QUIT", "BYE")

	if n := st.ViolationCount(); n != 0 {
		t.Fatalf("%d durability violations during degraded-mode run", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-done
}

// faultedBatch opens a one-shard store whose value of key "victim" sits on
// lines marked bad (transient, or sticky), then runs ops as one group-commit
// batch, queued behind a held batch, and returns their replies. Each op is
// its own connection's.
func faultedBatch(t *testing.T, transient bool, ops ...*Pending) (*shard.Store, []string) {
	t.Helper()
	st, err := shard.Open(shard.Options{Shards: 1, RegionSize: 512 << 10, CoordSize: 64 << 10,
		Variant: core.RomLog})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	bigVal := strings.Repeat("z", 4096)
	if err := st.Put([]byte("victim"), []byte(bigVal)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte("healthy"), []byte("h")); err != nil {
		t.Fatal(err)
	}
	dev := st.Devices()[0]
	off := bytes.Index(dev.Persisted(), []byte(bigVal))
	if off < 0 {
		t.Fatal("value not found in the shard image")
	}
	for o := off + pmem.LineSize; o < off+len(bigVal)-pmem.LineSize; o += pmem.LineSize {
		dev.MarkBad(o, transient)
	}

	entered, release := make(chan struct{}), make(chan struct{})
	var sizes []int
	c := NewCommitter(st, GroupOptions{OnBatch: func(_ int, seq uint64, batch []*Pending) {
		sizes = append(sizes, len(batch))
		if seq == 1 {
			close(entered)
			<-release
		}
	}})
	hold := c.Submit(0, 0, "hold", nil, func(ptm.Tx, *kvstore.DB) (string, error) { return "OK", nil })
	go hold.Wait()
	<-entered
	for i, p := range ops {
		p.Owner, p.Wake = uint64(i+1), make(chan struct{}, 1)
		c.enqueue(0, p)
	}
	close(release)
	replies := make([]string, len(ops))
	for i, p := range ops {
		replies[i] = p.Wait()
	}
	c.Close()
	if len(sizes) != 2 || sizes[1] != len(ops) {
		t.Fatalf("batches of %v ops: want the held one, then all %d in one", sizes, len(ops))
	}
	return st, replies
}

// faultOp is a Pending running body; read marks it a read.
func faultOp(read bool, body func(tx ptm.Tx, db *kvstore.DB) (string, error)) *Pending {
	return &Pending{op: "op", read: read, body: func(_ *cmd, tx ptm.Tx, db *kvstore.DB) (string, error) { return body(tx, db) }}
}

// rewriteVictim reads the victim's value, over the bad lines, and then
// overwrites it with val.
func rewriteVictim(val string) *Pending {
	return faultOp(false, func(tx ptm.Tx, db *kvstore.DB) (string, error) {
		if _, err := db.GetTx(tx, []byte("victim")); err != nil {
			return "", err
		}
		return "OK", db.PutTx(tx, []byte("victim"), []byte(val))
	})
}

// getOp reads key, replying with its value.
func getOp(key string) *Pending {
	return faultOp(true, func(tx ptm.Tx, db *kvstore.DB) (string, error) {
		v, err := db.GetTx(tx, []byte(key))
		return "VALUE " + string(v), err
	})
}

// TestBatchStickyFaultQuarantines: in a batch of two connections' writes, a
// sticky media fault on one key's lines quarantines the shard and replies
// UNAVAIL to the faulted write, as it would to a single-key write; the
// healthy write committed before it replies OK.
func TestBatchStickyFaultQuarantines(t *testing.T) {
	st, replies := faultedBatch(t, false,
		faultOp(false, func(tx ptm.Tx, db *kvstore.DB) (string, error) {
			return "OK", db.PutTx(tx, []byte("healthy"), []byte("h2"))
		}),
		rewriteVictim("a"))
	if replies[0] != "OK" || !strings.HasPrefix(replies[1], "UNAVAIL shard=0") {
		t.Fatalf("replies %q: want OK, then UNAVAIL shard=0", replies)
	}
	if q := st.Quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("quarantined shards %v, want [0]", q)
	}
}

// TestBatchTransientFaultRetried: a transient media fault met by a write's
// lone re-run (its batch failed on another write) is retried and ends in OK,
// and the write behind it on the same key still lands after it.
func TestBatchTransientFaultRetried(t *testing.T) {
	st, replies := faultedBatch(t, true,
		faultOp(false, func(ptm.Tx, *kvstore.DB) (string, error) { return "", errors.New("boom") }),
		rewriteVictim("a"),
		rewriteVictim("b"))
	if !strings.HasPrefix(replies[0], "ERR") || replies[1] != "OK" || replies[2] != "OK" {
		t.Fatalf("replies %q: want ERR, OK, OK", replies)
	}
	if v, err := st.Get([]byte("victim")); err != nil || string(v) != "b" {
		t.Fatalf("victim = %q, %v: want the later write's b", v, err)
	}
	if q := st.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantined shards %v after a transient fault", q)
	}
}

// TestBatchReadFailureIsolated: in a batch of reads, a read of a rotted key
// fails alone — it quarantines the shard and replies UNAVAIL — while the
// healthy read batched before it still replies with its value.
func TestBatchReadFailureIsolated(t *testing.T) {
	st, replies := faultedBatch(t, false, getOp("healthy"), getOp("victim"))
	if replies[0] != "VALUE h" || !strings.HasPrefix(replies[1], "UNAVAIL shard=0: ") {
		t.Fatalf("replies %q: want VALUE h, then UNAVAIL shard=0", replies)
	}
	if q := st.Quarantined(); len(q) != 1 || q[0] != 0 {
		t.Fatalf("quarantined shards %v, want [0]", q)
	}
}
