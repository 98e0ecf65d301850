package server

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/shard"
)

// TestWireHeapExhaustion fills a small shard's persistent heap over the wire.
// The SET that no longer fits is refused with an ERR reply naming the typed
// error, on a connection that stays open; every key written before it still
// answers GET, and after a DEL frees room a SET succeeds again.
func TestWireHeapExhaustion(t *testing.T) {
	st, err := shard.Open(shard.Options{Shards: 1, RegionSize: 128 << 10, CoordSize: 32 << 10, Variant: core.RomLog})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, addr, done := startServer(t, st)
	cl := dial(t, addr)
	val := strings.Repeat("v", 1000)
	n := 0
	for ; ; n++ {
		if n > 1000 {
			t.Fatal("128 KiB heap took 1000 SETs of 1000 bytes")
		}
		reply, err := cl.do(fmt.Sprintf("SET fill-%04d %s", n, val))
		if err != nil {
			t.Fatalf("SET %d: connection lost: %v", n, err)
		}
		if reply == "OK" {
			continue
		}
		if !strings.HasPrefix(reply, "ERR ") || !strings.Contains(reply, ptm.ErrOutOfMemory.Error()) {
			t.Fatalf("SET %d refused with %q, want an ERR naming %q", n, reply, ptm.ErrOutOfMemory)
		}
		break
	}
	if n == 0 {
		t.Fatal("the first SET was refused")
	}
	for i := 0; i < n; i++ {
		cl.must(t, fmt.Sprintf("GET fill-%04d", i), "VALUE "+val)
	}
	cl.must(t, fmt.Sprintf("GET fill-%04d", n), "NOTFOUND")
	for i := 0; i < 4; i++ {
		cl.must(t, fmt.Sprintf("DEL fill-%04d", i), "OK")
	}
	cl.must(t, "SET after-del "+val, "OK")
	cl.must(t, "GET after-del", "VALUE "+val)
	shutdown(t, srv, done)
}

// TestShutdownUnderLoad shuts the server down while 8 connections pipeline
// SETs at full rate, each over its own 256 keys. Shutdown must drain within a
// 2 s budget, and every write whose OK a client read must be in the store
// reopened from its devices' crash images, or overwritten there by a later
// write of the same connection.
func TestShutdownUnderLoad(t *testing.T) {
	opts := shard.Options{Shards: 2, RegionSize: 1 << 20, CoordSize: 64 << 10, Variant: core.RomLog}
	st, err := shard.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, done := startServer(t, st)
	const conns, burst, keys = 8, 16, 256
	type result struct {
		acked map[string]int // key -> generation of its last acked SET
		err   error
	}
	results := make(chan result, conns)
	for c := 0; c < conns; c++ {
		cl := dial(t, addr)
		go func() {
			res := result{acked: map[string]int{}}
			defer func() { results <- res }()
			for i := 0; ; i += burst {
				var b strings.Builder
				for j := i; j < i+burst; j++ {
					fmt.Fprintf(&b, "SET c%d-%03d %d\n", c, j%keys, j)
				}
				if _, err := cl.c.Write([]byte(b.String())); err != nil {
					return
				}
				for j := i; j < i+burst; j++ {
					reply, err := cl.r.ReadString('\n')
					if err != nil {
						return
					}
					if reply != "OK\n" {
						res.err = fmt.Errorf("conn %d SET %d: reply %q", c, j, reply)
						return
					}
					res.acked[fmt.Sprintf("c%d-%03d", c, j%keys)] = j
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	acked := map[string]int{}
	for c := 0; c < conns; c++ {
		res := <-results
		if res.err != nil {
			t.Fatal(res.err)
		}
		maps.Copy(acked, res.acked)
	}
	if len(acked) == 0 {
		t.Fatal("no SET was acked before the shutdown")
	}

	devs := st.Devices()
	imgs := make([]*pmem.Device, len(devs))
	for i, d := range devs {
		imgs[i] = pmem.FromImage(d.CrashImage(pmem.DropAll), pmem.ModelDRAM)
	}
	re, err := shard.Reopen(imgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, gen := range acked {
		v, err := re.Get([]byte(k))
		if got, _ := strconv.Atoi(string(v)); err != nil || got < gen {
			t.Fatalf("acked SET %s %d lost at reopen: got %q err %v", k, gen, v, err)
		}
	}
}

// TestLongLinesDoNotPinConnectionMemory bounds what a long request line
// leaves behind: 32 connections each send one SET of maxLine-64 bytes and a
// GET of it, then go idle. A PING on each before the heap is measured shows
// the connection is still open and done with its GET's reply. The buffer a
// line longer than the connection's reader is assembled in must not outlive
// its burst, so the Go heap grows by well under one such line per
// connection.
func TestLongLinesDoNotPinConnectionMemory(t *testing.T) {
	st, err := shard.Open(shard.Options{Shards: 1, RegionSize: 8 << 20, CoordSize: 32 << 10, Variant: core.RomLog})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, addr, done := startServer(t, st)
	const conns = 32
	cls := make([]*client, conns)
	for i := range cls {
		cls[i] = dial(t, addr)
		cls[i].must(t, "PING", "PONG")
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	val := strings.Repeat("v", maxLine-64)
	for i, cl := range cls {
		if reply, err := cl.do("SET long " + val); err != nil || reply != "OK" {
			t.Fatalf("conn %d: SET of %d bytes: reply %.40q, err %v", i, len(val), reply, err)
		}
		if reply, err := cl.do("GET long"); err != nil || reply != "VALUE "+val {
			t.Fatalf("conn %d: GET: reply of %d bytes, err %v", i, len(reply), err)
		}
	}
	val = ""
	for _, cl := range cls {
		cl.must(t, "PING", "PONG")
	}
	grown := int64(heap()) - int64(before)
	t.Logf("Go heap grew %.1f MiB over %d idle connections", float64(grown)/(1<<20), conns)
	if grown >= 4<<20 {
		t.Fatalf("Go heap grew %.1f MiB after %d connections each sent one %d-byte line and went idle, want < 4 MiB",
			float64(grown)/(1<<20), conns, maxLine-64)
	}
	shutdown(t, srv, done)
}
