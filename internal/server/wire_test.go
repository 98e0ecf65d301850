package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/linearize"
	"repro/internal/obs"
	"repro/internal/ptm"
	"repro/internal/shard"
)

// kvModel is the sequential specification of one key under SET, INCR and
// GET: state and results are the key's integer value, absent while unset.
// INCR answers the new value, so an INCR applied twice shows up in every
// later reply.
type kvModel struct{}

const absent = ^uint64(0)

func (kvModel) Init() any { return absent }

func (kvModel) Apply(state any, op linearize.Op) (uint64, any) {
	v := state.(uint64)
	switch op.Kind {
	case "set":
		return 0, op.Arg
	case "incr":
		if v == absent {
			v = 0
		}
		return v + 1, v + 1
	case "get":
		return v, v
	}
	panic("kvModel: unknown op " + op.Kind)
}

func (kvModel) Hash(state any) uint64 { return state.(uint64) }

// wireResult decodes a reply into the model's result for op.
func wireResult(kind, reply string) (uint64, error) {
	switch {
	case kind == "set" && reply == "OK":
		return 0, nil
	case kind == "exec" && strings.HasPrefix(reply, "OK "):
		return 0, nil
	case kind == "get" && reply == "NOTFOUND":
		return absent, nil
	case kind == "get" && strings.HasPrefix(reply, "VALUE "):
		return strconv.ParseUint(reply[len("VALUE "):], 10, 64)
	case kind == "incr" && strings.HasPrefix(reply, "INT "):
		return strconv.ParseUint(reply[len("INT "):], 10, 64)
	}
	return 0, fmt.Errorf("%s answered %q", kind, reply)
}

// TestWireLinearizableSharedKeys is the cross-connection net: 4 pipelining
// connections (depth 1–8 per burst) run SET/INCR/GET and MULTI/EXEC over 3
// shared keys of a 2-shard store, every request's invoke and return time is
// recorded, and each key's history must be explainable by one sequential
// order (linearizability is compositional, so keys are checked one by one).
// Two of the keys share a shard and the third lives on the other, so an EXEC
// over the first two rides its shard's group queue, and one that includes
// the third runs the cross-shard two-phase protocol; either enters every key
// it touches as a SET. A reply released before its batch settled, a read
// served from a stale shard, or an INCR applied twice fails the check.
func TestWireLinearizableSharedKeys(t *testing.T) {
	st := openShards(t, 2)
	defer st.Close()
	srv, addr, done := startServerOpts(t, st, Options{})
	const conns, rounds, perConn = 4, 12, 9
	var clock atomic.Int64
	for round := 0; round < rounds; round++ {
		keys := sharedKeys(st.ShardFor, fmt.Sprintf("lin%d-", round))
		histories := make([][][]linearize.Op, conns) // [conn][key]
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			histories[c] = make([][]linearize.Op, len(keys))
			plan := linPlan(rand.New(rand.NewSource(int64(round*conns+c))), c, perConn, keys)
			cl := dial(t, addr)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer cl.c.Close()
				rng := rand.New(rand.NewSource(int64(-round*conns - c)))
				for sent := 0; sent < perConn; {
					burst := plan[sent:min(sent+1+rng.Intn(8), perConn)]
					var out strings.Builder
					for _, r := range burst {
						for _, line := range r.lines {
							out.WriteString(line + "\n")
						}
					}
					invoke := clock.Add(1)
					if _, err := cl.c.Write([]byte(out.String())); err != nil {
						t.Error(err)
						return
					}
					for _, r := range burst {
						var reply string
						for j, line := range r.lines {
							got, err := cl.r.ReadString('\n')
							if err != nil {
								t.Error(err)
								return
							}
							reply = strings.TrimRight(got, "\r\n")
							if want := multiReply(r.op.Kind, j, len(r.lines)); want != "" && reply != want {
								t.Errorf("%s: %q, want %q", line, reply, want)
								return
							}
						}
						r.op.Invoke, r.op.Return = invoke, clock.Add(1)
						var err error
						if r.op.Result, err = wireResult(r.op.Kind, reply); err != nil {
							t.Errorf("%s: %v", r.lines, err)
							return
						}
						op := r.op
						if op.Kind == "exec" {
							op.Kind, op.Result = "set", 0
						}
						for _, k := range r.keys {
							histories[c][k] = append(histories[c][k], op)
						}
					}
					sent += len(burst)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			break
		}
		for k, key := range keys {
			var h []linearize.Op
			for c := range histories {
				h = append(h, histories[c][k]...)
			}
			if !linearize.Check(kvModel{}, h) {
				t.Fatalf("round %d key %s: history is not linearizable:\n%+v", round, key, h)
			}
		}
	}
	shutdown(t, srv, done)
}

// sharedKeys returns three keys named prefix+n: the first two on one shard,
// the third on another.
func sharedKeys(shardFor func([]byte) int, prefix string) []string {
	var keys []string
	for n := 0; len(keys) < 3; n++ {
		key := prefix + strconv.Itoa(n)
		sh := shardFor([]byte(key))
		switch {
		case len(keys) == 0,
			len(keys) == 1 && sh == shardFor([]byte(keys[0])),
			len(keys) == 2 && sh != shardFor([]byte(keys[0])):
			keys = append(keys, key)
		}
	}
	return keys
}

// linReq is one request of TestWireLinearizableSharedKeys: one command, or a
// MULTI block whose EXEC reply is its result. keys index the keys it touches.
type linReq struct {
	keys  []int
	lines []string
	op    linearize.Op
}

// linPlan draws connection c's n requests over keys. Request i is a SET, INCR
// or GET of key (c+i) mod 3, or a MULTI block: SETs of keys 0 and 1, which
// share a shard (single-shard EXEC), or of all three (cross-shard EXEC). A
// key gets at most 5 requests per connection, so a 4-connection history stays
// within linearize.Check's 20 operations.
func linPlan(rng *rand.Rand, c, n int, keys []string) []linReq {
	plan := make([]linReq, n)
	var count [3]int
	for i := range plan {
		count[(c+i)%len(keys)]++
	}
	for i := range plan {
		r := &plan[i]
		k := (c + i) % len(keys)
		r.keys = []int{k}
		r.op.Arg = uint64(rng.Intn(1000))
		switch kind := rng.Intn(5); kind {
		case 0:
			r.op.Kind, r.lines = "set", []string{fmt.Sprintf("SET %s %d", keys[k], r.op.Arg)}
		case 1:
			r.op.Kind, r.lines = "incr", []string{"INCR " + keys[k]}
		case 2, 3:
			multi := []int{0, 1, 2}[:kind]
			count[k]--
			fits := true
			for _, m := range multi {
				count[m]++
				fits = fits && count[m] <= 5
			}
			if fits {
				r.keys = multi
				r.op.Kind, r.lines = "exec", []string{"MULTI"}
				for _, m := range multi {
					r.lines = append(r.lines, fmt.Sprintf("SET %s %d", keys[m], r.op.Arg))
				}
				r.lines = append(r.lines, "EXEC")
				break
			}
			for _, m := range multi {
				count[m]--
			}
			count[k]++
			fallthrough
		default:
			r.op.Kind, r.lines = "get", []string{"GET " + keys[k]}
		}
	}
	return plan
}

// multiReply is the reply expected to line j of a MULTI block of n lines
// ("" for a line that is not part of one, or for its EXEC, which wireResult
// decodes).
func multiReply(kind string, j, n int) string {
	switch {
	case kind != "exec" || j == n-1:
		return ""
	case j == 0:
		return "OK"
	}
	return "QUEUED " + strconv.Itoa(j)
}

// TestStalledClientDoesNotStallShard pins that a connection never holds its
// shard while it writes replies: connection A pipelines SETs without reading
// a reply until its socket buffers fill and the server blocks writing to
// it; connection B, on the same shard, must still complete its round trips,
// and Shutdown must still return.
func TestStalledClientDoesNotStallShard(t *testing.T) {
	st := openShards(t, 1)
	defer st.Close()
	srv, addr, done := startServerOpts(t, st, Options{})

	a, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.(*net.TCPConn).SetReadBuffer(4 << 10)
	chunk := []byte(strings.Repeat("SET stalled v\n", 1<<10))
	for written := 0; ; written += len(chunk) {
		if written > 64<<20 {
			t.Fatal("64 MiB of pipelined SETs never filled A's socket: the server is not replying")
		}
		a.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		if _, err := a.Write(chunk); err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatal(err)
			}
			break
		}
	}

	b := dial(t, addr)
	defer b.c.Close()
	b.c.SetDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < 100; i++ {
		b.must(t, fmt.Sprintf("SET b%d v", i), "OK")
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestSubmitNoStrandedOps pins that run-to-completion strands nothing: 8
// goroutines Submit with windows of 1–4 and leave some Pendings unwaited,
// then Close runs. Every operation must take effect exactly once and be
// counted in a batch.
func TestSubmitNoStrandedOps(t *testing.T) {
	st := openShards(t, 2)
	defer st.Close()
	reg := obs.NewRegistry()
	c := NewCommitter(st, GroupOptions{registry: reg})
	const workers, ops = 8, 60
	all := make([][]*Pending, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			key := []byte(fmt.Sprintf("stranded%d", w))
			window := 1 + rng.Intn(4)
			var inflight []*Pending
			for i := 0; i < ops; i++ {
				p := c.Submit(st.ShardFor(key), uint64(w), "incr", nil, func(tx ptm.Tx, db *kvstore.DB) (string, error) {
					n := 0
					if v, err := db.GetTx(tx, key); err == nil {
						n, _ = strconv.Atoi(string(v))
					} else if !errors.Is(err, kvstore.ErrNotFound) {
						return "", err
					}
					return "OK", db.PutTx(tx, key, []byte(strconv.Itoa(n+1)))
				})
				all[w] = append(all[w], p)
				if rng.Intn(5) > 0 { // one in five is never waited on
					inflight = append(inflight, p)
				}
				for len(inflight) > window {
					if reply := inflight[0].Wait(); reply != "OK" {
						t.Errorf("worker %d: reply %q", w, reply)
					}
					inflight = inflight[1:]
				}
			}
		}()
	}
	wg.Wait()
	c.Close()
	for w, ps := range all {
		for i, p := range ps {
			if p.Seq() == 0 {
				t.Fatalf("worker %d op %d still pending after Close", w, i)
			}
		}
		v, err := st.Get([]byte(fmt.Sprintf("stranded%d", w)))
		if err != nil || string(v) != strconv.Itoa(ops) {
			t.Fatalf("worker %d counter = %q (err %v), want %d", w, v, err, ops)
		}
	}
	if n := reg.Counter("net_group_batch_ops_total").Load(); n != workers*ops {
		t.Fatalf("net_group_batch_ops_total = %d, want %d", n, workers*ops)
	}
}

// TestWireBatchIsOneEngineRound pins that a group-commit batch is exactly
// one durability round of its shard's engine, although embedded writers
// share the engine's combining queue with the batch's leader: 4 connections
// Submit while 2 goroutines Put directly on the store, and a Store.Update
// holds the engine's slot open until a batch has started, so an embedded
// leader rescans while the batch is being queued. Every operation records
// the engine's committed-round count as it runs; the members of one batch
// must all record the same count, and no two batches may share one.
func TestWireBatchIsOneEngineRound(t *testing.T) {
	st := openShards(t, 1)
	defer st.Close()
	eng := st.Engine(0)
	var mu sync.Mutex
	members := map[uint64][]*Pending{} // batch seq → its operations
	idOf := map[*Pending]int{}
	started := make(chan struct{}, 1)
	c := NewCommitter(st, GroupOptions{onBatch: func(_ int, seq uint64, ops []*Pending) {
		mu.Lock()
		members[seq] = append(members[seq], ops...)
		mu.Unlock()
		select {
		case started <- struct{}{}:
		default:
		}
	}})
	const conns, perConn = 4, 40
	rounds := make([]uint64, conns*perConn)
	stop := make(chan struct{})
	var embedded, wire sync.WaitGroup
	for w := 0; w < 2; w++ {
		embedded.Add(1)
		go func() {
			defer embedded.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := st.Put(fmt.Appendf(nil, "embedded%d-%d", w, i%8), []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					st.Update(0, func(ptm.Tx, *kvstore.DB) error {
						select {
						case <-started:
							for range 100 {
								runtime.Gosched()
							}
						case <-time.After(time.Millisecond):
						}
						return nil
					})
				}
			}
		}()
	}
	for cn := 0; cn < conns; cn++ {
		wire.Add(1)
		go func() {
			defer wire.Done()
			for i := 0; i < perConn; i++ {
				id := cn*perConn + i
				p := c.Submit(0, uint64(cn+1), "set", nil, func(tx ptm.Tx, db *kvstore.DB) (string, error) {
					rounds[id] = eng.Stats().Batches
					return "OK", db.PutTx(tx, fmt.Appendf(nil, "wire%d", id), []byte("v"))
				})
				mu.Lock()
				idOf[p] = id
				mu.Unlock()
				if reply := p.Wait(); reply != "OK" {
					t.Errorf("op %d: %q", id, reply)
				}
			}
		}()
	}
	wire.Wait()
	close(stop)
	embedded.Wait()
	c.Close()
	mu.Lock()
	defer mu.Unlock()
	owner := map[uint64]uint64{} // engine round → batch seq
	for seq, ps := range members {
		ids := make([]int, len(ps))
		for i, p := range ps {
			ids[i] = idOf[p]
		}
		r := rounds[ids[0]]
		for _, id := range ids {
			if rounds[id] != r {
				t.Fatalf("batch %d spans engine rounds: op %d ran after %d rounds, op %d after %d", seq, ids[0], r, id, rounds[id])
			}
		}
		if prev, ok := owner[r]; ok {
			t.Fatalf("batches %d and %d share engine round %d", prev, seq, r+1)
		}
		owner[r] = seq
	}
}

// BenchmarkServeFanIn measures SET bursts from many connections at once:
// each connection keeps one burst outstanding — one request at depth 1, or
// 16 SETs in one write whose 16 replies it reads before the next at depth
// 16. b.N counts SETs. It reports throughput, the mean group-commit batch
// and the p99 burst round trip.
func BenchmarkServeFanIn(b *testing.B) {
	for _, depth := range []int{1, 16} {
		for _, conns := range []int{2, 64, 256, 1024} {
			b.Run(fmt.Sprintf("depth=%d/conns=%d", depth, conns), func(b *testing.B) {
				benchFanIn(b, depth, conns)
			})
		}
	}
}

// benchFanIn runs one point: conns connections, each writing SETs of its
// own depth keys per burst and reading every reply, which must be OK. The
// regions hold 16 keys for each of 1,024 connections.
func benchFanIn(b *testing.B, depth, conns int) {
	st, err := shard.Open(shard.Options{Shards: 2, RegionSize: 4 << 20, CoordSize: 64 << 10, Variant: core.RomLog})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv := New(st, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	cls := make([]net.Conn, conns)
	for i := range cls {
		if cls[i], err = net.Dial("tcp", ln.Addr().String()); err != nil {
			b.Fatal(err)
		}
	}
	bursts := (b.N + depth - 1) / depth
	lat := make([][]time.Duration, conns)
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range cls {
		n := bursts / conns
		if i < bursts%conns {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := bufio.NewReader(c)
			var req []byte
			for k := 0; k < depth; k++ {
				req = fmt.Appendf(req, "SET fan%d-%d v\n", i, k)
			}
			for j := 0; j < n; j++ {
				t0 := time.Now()
				if _, err := c.Write(req); err != nil {
					b.Error(err)
					return
				}
				for k := 0; k < depth; k++ {
					if line, err := r.ReadSlice('\n'); err != nil || string(line) != "OK\n" {
						b.Errorf("reply %q, %v: want OK", line, err)
						return
					}
				}
				lat[i] = append(lat[i], time.Since(t0))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	all := slices.Concat(lat...)
	slices.Sort(all)
	b.ReportMetric(float64(bursts*depth)/elapsed.Seconds(), "ops/s")
	b.ReportMetric(srv.GroupCommitter().Stats().MeanBatchOps, "ops/batch")
	if len(all) > 0 {
		b.ReportMetric(float64(all[len(all)*99/100].Microseconds()), "p99_us")
	}
	for _, c := range cls {
		c.Close()
	}
	srv.Shutdown(context.Background())
	<-done
}
