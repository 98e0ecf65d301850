package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/linearize"
	"repro/internal/obs"
	"repro/internal/ptm"
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
// connections (depth 1–8 per burst) run SET/INCR/GET over 3 shared keys of a
// 2-shard store, every request's invoke and return time is recorded, and
// each key's history must be explainable by one sequential order
// (linearizability is compositional, so keys are checked one by one). A
// reply released before its batch settled, a read served from a stale
// shard, or an INCR applied twice fails the check.
func TestWireLinearizableSharedKeys(t *testing.T) {
	st := openShards(t, 2)
	defer st.Close()
	srv, addr, done := startServerOpts(t, st, Options{})
	const conns, rounds, perConn = 4, 12, 12
	var clock atomic.Int64
	for round := 0; round < rounds; round++ {
		keys := []string{fmt.Sprintf("lin%d-a", round), fmt.Sprintf("lin%d-b", round), fmt.Sprintf("lin%d-c", round)}
		histories := make([][][]linearize.Op, conns) // [conn][key]
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			histories[c] = make([][]linearize.Op, len(keys))
			rng := rand.New(rand.NewSource(int64(round*conns + c)))
			cl := dial(t, addr)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer cl.c.Close()
				type req struct {
					key  int
					line string
					op   linearize.Op
				}
				for sent := 0; sent < perConn; {
					burst := make([]req, min(1+rng.Intn(8), perConn-sent))
					var out strings.Builder
					for i := range burst {
						r := &burst[i]
						r.key = (c + sent + i) % len(keys) // 4 ops per key per conn: 16 per history
						switch n := rng.Intn(3); n {
						case 0:
							r.op.Arg = uint64(rng.Intn(1000))
							r.op.Kind, r.line = "set", fmt.Sprintf("SET %s %d", keys[r.key], r.op.Arg)
						case 1:
							r.op.Kind, r.line = "incr", "INCR "+keys[r.key]
						default:
							r.op.Kind, r.line = "get", "GET "+keys[r.key]
						}
						out.WriteString(r.line + "\n")
					}
					invoke := clock.Add(1)
					if _, err := cl.c.Write([]byte(out.String())); err != nil {
						t.Error(err)
						return
					}
					for i := range burst {
						line, err := cl.r.ReadString('\n')
						if err != nil {
							t.Error(err)
							return
						}
						r := &burst[i]
						r.op.Invoke, r.op.Return = invoke, clock.Add(1)
						if r.op.Result, err = wireResult(r.op.Kind, strings.TrimRight(line, "\r\n")); err != nil {
							t.Errorf("%s: %v", r.line, err)
							return
						}
						histories[c][r.key] = append(histories[c][r.key], r.op)
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
	c := NewCommitter(st, GroupOptions{Registry: reg})
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
				p := c.Submit(st.ShardFor(key), uint64(w), "incr", w, func(tx ptm.Tx, db *kvstore.DB) (string, error) {
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
			if !p.done.Load() {
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

// BenchmarkServeFanIn measures depth-1 SETs from many connections at once:
// each connection keeps one request outstanding. It reports throughput, the
// p99 round trip and the mean group-commit batch.
func BenchmarkServeFanIn(b *testing.B) {
	for _, conns := range []int{2, 64, 256, 1024} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			st := openShards(b, 2)
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
			lat := make([][]time.Duration, conns)
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for i, c := range cls {
				n := b.N / conns
				if i < b.N%conns {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := bufio.NewReader(c)
					req := []byte(fmt.Sprintf("SET fan%d v\n", i))
					for j := 0; j < n; j++ {
						t0 := time.Now()
						if _, err := c.Write(req); err != nil {
							b.Error(err)
							return
						}
						if _, err := r.ReadSlice('\n'); err != nil {
							b.Error(err)
							return
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
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
			b.ReportMetric(srv.GroupCommitter().Stats().MeanBatchOps, "ops/batch")
			if len(all) > 0 {
				b.ReportMetric(float64(all[len(all)*99/100].Microseconds()), "p99_us")
			}
			for _, c := range cls {
				c.Close()
			}
			srv.Shutdown(context.Background())
			<-done
		})
	}
}
