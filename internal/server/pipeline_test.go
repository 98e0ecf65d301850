package server

import (
	"bufio"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/ptm"
	"repro/internal/shard"
)

// readLines reads n reply lines from the client.
func readLines(t *testing.T, r *bufio.Reader, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d/%d: %v (got %q so far)", i+1, n, err, out)
		}
		out = append(out, strings.TrimRight(line, "\r\n"))
	}
	return out
}

// TestPipelinedBurstInOrderReplies is the pipelining conformance test: one
// connection streams a burst of interleaved SET/GET/INCR/DECR/DEL without
// reading a single reply, then reads the whole burst back — replies must be
// byte-exact and strictly in request order, and reads must observe the
// connection's own earlier (pipelined) writes.
func TestPipelinedBurstInOrderReplies(t *testing.T) {
	st := newTestStore(t)
	defer st.Close()
	srv, addr, done := startServer(t, st)

	cl := dial(t, addr)
	cmds := []string{
		"SET a 1",
		"INCR ctr",
		"GET a",
		"SET b two words",
		"DECR ctr 5",
		"GET b",
		"INCR ctr 10",
		"GET ctr",
		"DEL a",
		"GET a",
		"PING",
	}
	want := []string{
		"OK",
		"INT 1",
		"VALUE 1",
		"OK",
		"INT -4",
		"VALUE two words",
		"INT 6",
		"VALUE 6",
		"OK",
		"NOTFOUND",
		"PONG",
	}
	if _, err := cl.c.Write([]byte(strings.Join(cmds, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	got := readLines(t, cl.r, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reply %d to %q: got %q, want %q (all: %q)", i, cmds[i], got[i], want[i], got)
		}
	}

	cl.c.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// holdShards occupies every shard's leader slot with a blocking operation
// submitted through the committer, so operations queue up behind it until
// the returned release runs. release returns once the holds committed.
func holdShards(t *testing.T, srv *Server, st *shard.Store) (release func()) {
	t.Helper()
	rel := make(chan struct{})
	var wg sync.WaitGroup
	for sh := 0; sh < st.NumShards(); sh++ {
		entered := make(chan struct{})
		var once sync.Once
		p := srv.GroupCommitter().Submit(sh, 0, "hold", nil, func(ptm.Tx, *kvstore.DB) (string, error) {
			once.Do(func() { close(entered) })
			<-rel
			return "OK", nil
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Wait()
		}()
		<-entered
	}
	return func() {
		close(rel)
		wg.Wait()
	}
}

// waitQueued waits, up to a deadline, until n operations sit in the
// committer's queues.
func waitQueued(srv *Server, n int) {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		queued := 0
		for _, d := range srv.GroupCommitter().Stats().QueueDepth {
			queued += d
		}
		if queued >= n {
			return
		}
	}
}

// TestPipelinedFlushCoalescing pins that the connection does NOT flush once
// per reply: a burst whose writes all queue behind a held leader slot comes
// back in far fewer flushes than replies.
func TestPipelinedFlushCoalescing(t *testing.T) {
	st := newTestStore(t)
	defer st.Close()
	reg := obs.NewRegistry()
	srv, addr, done := startServerOpts(t, st, Options{Registry: reg})

	cl := dial(t, addr)
	const n = 16
	var burst strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&burst, "SET flushk%d v%d\n", i, i)
	}
	release := holdShards(t, srv, st)
	if _, err := cl.c.Write([]byte(burst.String())); err != nil {
		t.Fatal(err)
	}
	waitQueued(srv, n)
	release()
	for i, line := range readLines(t, cl.r, n) {
		if line != "OK" {
			t.Fatalf("reply %d: got %q, want OK", i, line)
		}
	}
	if flushes := reg.Counter("net_reply_flush_total").Load(); flushes >= n {
		t.Fatalf("writer flushed %d times for %d replies; want coalesced (< %d)", flushes, n, n)
	}

	cl.c.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestGroupCommitSharesDurabilityRounds proves the point of group commit: K
// connections' concurrent SETs to one shard complete in fewer durability
// rounds (device fence events) than K solo SETs would pay.
func TestGroupCommitSharesDurabilityRounds(t *testing.T) {
	st, err := shard.Open(shard.Options{
		Shards:     1,
		RegionSize: 512 << 10,
		CoordSize:  64 << 10,
		Variant:    core.RomLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	srv, addr, done := startServerOpts(t, st, Options{Registry: reg})

	dev := st.Devices()[0] // single shard; the coordinator is last
	fenceEvents := func() uint64 {
		s := dev.Stats()
		return s.Pfences + s.Psyncs
	}

	// Baseline: one solo SET's durability round.
	warm := dial(t, addr)
	warm.must(t, "SET warmup v", "OK")
	dev.ResetStats()
	warm.must(t, "SET solo v", "OK")
	base := fenceEvents()
	if base == 0 {
		t.Fatal("solo SET recorded no fence events; cannot measure sharing")
	}

	// K concurrent SETs from K connections, queued behind a held leader slot
	// and released together: they land in one or two shared batches, paying
	// far fewer than K durability rounds.
	const K = 8
	clients := make([]*client, K)
	for i := range clients {
		clients[i] = dial(t, addr)
		clients[i].must(t, "PING", "PONG")
	}
	release := holdShards(t, srv, st)
	dev.ResetStats()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			<-start
			reply, err := cl.do(fmt.Sprintf("SET grp%d v%d", i, i))
			if err == nil && reply != "OK" {
				err = fmt.Errorf("reply %q", reply)
			}
			errs[i] = err
		}(i, cl)
	}
	close(start)
	waitQueued(srv, K)
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("conn %d SET: %v", i, err)
		}
	}
	grouped := fenceEvents()
	if grouped >= base*K {
		t.Fatalf("%d concurrent SETs paid %d fence events (solo baseline %d): no durability rounds were shared", K, grouped, base)
	}
	t.Logf("solo SET: %d fence events; %d concurrent SETs: %d total (%.2fx solo, %.2f per ack)",
		base, K, grouped, float64(grouped)/float64(base), float64(grouped)/float64(K))
	if max := reg.Histogram("net_group_batch_conns").Max(); max < 2 {
		t.Fatalf("no batch merged ops from more than one connection (max fan-in %d)", max)
	}

	for _, cl := range clients {
		cl.c.Close()
	}
	warm.c.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestMultiQueuedErrorReplyOrdering pins the reply-ordering contract under
// MULTI…EXEC in a pipelined burst: a failed queued command's error is
// reported in its request position — after earlier QUEUED replies, before
// later ones, and never after (or instead of) EXEC's summary.
func TestMultiQueuedErrorReplyOrdering(t *testing.T) {
	st := newTestStore(t)
	defer st.Close()
	srv, addr, done := startServer(t, st)

	cl := dial(t, addr)
	cmds := []string{
		"MULTI",
		"SET ord1 a",
		"BOGUS nope",
		"SET", // malformed: missing key and value
		"SET ord2 b",
		"EXEC",
		"GET ord1",
		"GET ord2",
	}
	want := []string{
		"OK",
		"QUEUED 1",
		`ERR unknown command "BOGUS"`,
		"ERR SET needs a key and a value",
		"QUEUED 2",
		"OK 2",
		"VALUE a",
		"VALUE b",
	}
	if _, err := cl.c.Write([]byte(strings.Join(cmds, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	got := readLines(t, cl.r, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reply %d to %q: got %q, want %q (all: %q)", i, cmds[i], got[i], want[i], got)
		}
	}

	cl.c.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestExpireTTLIncrSemantics drives the EXPIRE/TTL/INCR surface across an
// injected clock: lazy expiry on read, sweep on write, counters restarting
// after expiry, and the protocol-level failure replies.
func TestExpireTTLIncrSemantics(t *testing.T) {
	st := newTestStore(t)
	defer st.Close()
	var nowNs atomic.Int64
	nowNs.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	advance := func(d time.Duration) { nowNs.Add(int64(d)) }
	srv, addr, done := startServerOpts(t, st, Options{
		Now: func() time.Time { return time.Unix(0, nowNs.Load()) },
	})

	cl := dial(t, addr)

	// Deadline set, visible via TTL, enforced lazily on read.
	cl.must(t, "SET k v", "OK")
	cl.must(t, "TTL k", "TTL -1")
	cl.must(t, "EXPIRE k 5", "OK")
	cl.must(t, "TTL k", "TTL 5")
	cl.must(t, "GET k", "VALUE v")
	advance(6 * time.Second)
	cl.must(t, "GET k", "NOTFOUND")
	cl.must(t, "TTL k", "NOTFOUND")
	cl.must(t, "EXPIRE k 5", "NOTFOUND")

	// A write to the key sweeps the stale deadline.
	cl.must(t, "SET k v2", "OK")
	cl.must(t, "TTL k", "TTL -1")
	cl.must(t, "GET k", "VALUE v2")

	// EXPIRE <= 0 enforces immediately; EXPIRE on a missing key reports it.
	cl.must(t, "SET gone x", "OK")
	cl.must(t, "EXPIRE gone 0", "OK")
	cl.must(t, "GET gone", "NOTFOUND")
	cl.must(t, "EXPIRE never-was 5", "NOTFOUND")

	// Counters: INCR over an expired value restarts from zero.
	cl.must(t, "SET c 41", "OK")
	cl.must(t, "INCR c", "INT 42")
	cl.must(t, "EXPIRE c 1", "OK")
	advance(2 * time.Second)
	cl.must(t, "INCR c", "INT 1")
	cl.must(t, "TTL c", "TTL -1")

	// Protocol-level failures are replies, not aborts: the connection (and
	// any batch-mates) keep working.
	cl.must(t, "SET s not-a-number", "OK")
	cl.must(t, "INCR s", "ERR value is not an integer")
	cl.must(t, "SET o 9223372036854775807", "OK")
	cl.must(t, "INCR o", "ERR increment overflows a 64-bit integer")
	cl.must(t, "DECR o", "INT 9223372036854775806")
	cl.must(t, "GET s", "VALUE not-a-number")

	// Keys must not contain NUL: it is the expiry sidecar's marker byte.
	cl.must(t, "SET bad\x00key v", "ERR key must not contain NUL")
	cl.must(t, "GET bad\x00key", "ERR key must not contain NUL")
	cl.must(t, "INCR bad\x00key", "ERR key must not contain NUL")

	cl.c.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
}

// openShards opens a small in-memory store with n shards.
func openShards(t testing.TB, n int) *shard.Store {
	t.Helper()
	st, err := shard.Open(shard.Options{Shards: n, RegionSize: 512 << 10, CoordSize: 64 << 10, Variant: core.RomLog})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// burst writes cmds as one pipelined burst and reads one reply per command.
func (cl *client) burst(t *testing.T, cmds []string) []string {
	t.Helper()
	if _, err := cl.c.Write([]byte(strings.Join(cmds, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	return readLines(t, cl.r, len(cmds))
}

// TestPipelinedReadsSeeSequentialState pins read-your-writes for reads that
// ride the commit queue: in one burst, every GET/TTL behind the
// connection's own unresolved writes answers exactly what a sequential
// execution of the burst would.
func TestPipelinedReadsSeeSequentialState(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st := openShards(t, shards)
			defer st.Close()
			now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
			srv, addr, done := startServerOpts(t, st, Options{Now: func() time.Time { return now }})
			cl := dial(t, addr)
			for i := 0; i < 50; i++ {
				a, c := fmt.Sprintf("a%d", i), fmt.Sprintf("c%d", i)
				cmds := []string{"SET " + a + " 1", "GET " + a, "DEL " + a, "GET " + a, "INCR " + c,
					"INCR " + c, "TTL " + c, "EXPIRE " + c + " 100", "TTL " + c, "GET " + c}
				want := []string{"OK", "VALUE 1", "OK", "NOTFOUND", "INT 1", "INT 2", "TTL -1", "OK", "TTL 100", "VALUE 2"}
				got := cl.burst(t, cmds)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("burst %d reply %d to %q: got %q, want %q (all: %q)", i, j, cmds[j], got[j], want[j], got)
					}
				}
			}
			cl.c.Close()
			shutdown(t, srv, done)
		})
	}
}

// TestPipelinedReadRidesOneBatch is the stall test: with the leader slot
// held, a burst of SET, GET, 14 more SETs on one shard queues whole and
// commits as one 16-op batch. A reader that parks a GET until the writes
// before it are durable splits the burst at the GET instead.
func TestPipelinedReadRidesOneBatch(t *testing.T) {
	st := openShards(t, 1)
	defer st.Close()
	srv := New(st, Options{})
	entered, release := make(chan struct{}), make(chan struct{})
	sizes := make(chan int, 32)
	srv.committer.Close()
	srv.committer = NewCommitter(st, GroupOptions{OnBatch: func(_ int, seq uint64, ops []*Pending) {
		sizes <- len(ops)
		if seq == 1 {
			close(entered)
			<-release
		}
	}})
	addr, done := startServerWith(t, srv)
	cl := dial(t, addr)
	hold := srv.committer.Submit(0, 0, "hold", nil, func(ptm.Tx, *kvstore.DB) (string, error) { return "OK", nil })
	go hold.Wait()
	<-entered
	cmds := []string{"SET a 1", "GET a"}
	for i := 0; i < 14; i++ {
		cmds = append(cmds, fmt.Sprintf("SET b%d x", i))
	}
	if _, err := cl.c.Write([]byte(strings.Join(cmds, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); srv.committer.Stats().QueueDepth[0] < len(cmds) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	got := readLines(t, cl.r, len(cmds))
	if got[0] != "OK" || got[1] != "VALUE 1" {
		t.Fatalf("replies %q", got)
	}
	if held, next := <-sizes, <-sizes; held != 1 || next != len(cmds) {
		t.Fatalf("batches of %d then %d ops: want the held write, then all %d ops of the burst in one", held, next, len(cmds))
	}
	cl.c.Close()
	shutdown(t, srv, done)
}

// TestLoneOperationParksBurstWatches: behind a held shard slot, a
// connection's lone depth-1 SET parks — the park is what lets two depth-1
// connections that take turns share a round — while a burst of two watches
// the slot, one connection per shard at a time; the second burst parks.
// All three reply once the slot frees.
func TestLoneOperationParksBurstWatches(t *testing.T) {
	st := openShards(t, 1)
	defer st.Close()
	srv := New(st, Options{})
	entered, release := make(chan struct{}), make(chan struct{})
	srv.committer.Close()
	srv.committer = NewCommitter(st, GroupOptions{OnBatch: func(_ int, seq uint64, _ []*Pending) {
		if seq == 1 {
			close(entered)
			<-release
		}
	}})
	hold := srv.committer.Submit(0, 0, "hold", nil, func(ptm.Tx, *kvstore.DB) (string, error) { return "OK", nil })
	held := make(chan string, 1)
	go func() { held <- hold.Wait() }()
	<-entered
	q := srv.committer.queue(0)
	// serve dispatches lines as one connection's burst and replies on a
	// goroutine, as the connection's reader does after parsing it.
	serve := func(lines ...string) (chan struct{}, *strings.Builder) {
		cs := &connState{id: srv.connSeq.Add(1), wake: make(chan struct{}, 1), queued: -1}
		for _, l := range lines {
			tok, _ := srv.dispatch([]byte(l), cs)
			cs.toks = append(cs.toks, tok)
		}
		out, done := &strings.Builder{}, make(chan struct{})
		go func() {
			defer close(done)
			srv.reply(bufio.NewWriter(out), cs)
		}()
		return done, out
	}
	until := func(what string, parked int, watching bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			p, w := q.Waiting()
			if p == parked && w == watching {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d parked, watching %v; want %d, %v", what, p, w, parked, watching)
			}
		}
	}
	lone, loneOut := serve("SET lone 1")
	until("a lone SET behind the held slot", 1, false)
	burst, burstOut := serve("SET a 1", "SET b 2")
	until("a burst of two behind the held slot", 1, true)
	second, secondOut := serve("SET c 3", "GET c")
	until("a second burst beside the watcher", 2, true)
	close(release)
	for _, d := range []chan struct{}{lone, burst, second} {
		select {
		case <-d:
		case <-time.After(10 * time.Second):
			t.Fatal("a connection never got its replies")
		}
	}
	if r := <-held; r != "OK" {
		t.Fatalf("held operation replied %q", r)
	}
	for _, c := range []struct{ got, want string }{
		{loneOut.String(), "OK\n"}, {burstOut.String(), "OK\nOK\n"}, {secondOut.String(), "OK\nVALUE 3\n"},
	} {
		if c.got != c.want {
			t.Fatalf("replies %q, want %q", c.got, c.want)
		}
	}
	srv.committer.Close()
}

// TestPipelinedReadAcrossCutover pins the reroute hazard: a SPLIT cutover
// moves keys off shard 0 while their SETs (and, for half of them, the GETs
// behind) sit in shard 0's queue. Every GET must return its SET's value,
// whether it was queued before the cutover (and re-runs with its SET on the
// new owner) or dispatched after it (and must not read the new owner before
// the SET lands there).
func TestPipelinedReadAcrossCutover(t *testing.T) {
	st := openShards(t, 2)
	defer st.Close()
	srv := New(st, Options{})
	addr, done := startServerWith(t, srv)
	keysOn := func(prefix string, n int) []string {
		var out []string
		for i := 0; len(out) < n; i++ {
			if k := fmt.Sprintf("%s%d", prefix, i); st.ShardFor([]byte(k)) == 0 {
				out = append(out, k)
			}
		}
		return out
	}
	early, late := keysOn("early", 32), keysOn("late", 32)

	// Hold shard 0's leader slot outside its route pin: a re-routed op's
	// re-run happens after the batch's handle is released, so the cutover
	// can pass.
	var other []byte
	for i := 0; other == nil; i++ {
		if k := []byte(fmt.Sprintf("other%d", i)); st.ShardFor(k) == 1 {
			other = k
		}
	}
	entered, release := make(chan struct{}), make(chan struct{})
	hold := &Pending{op: "hold", keys: [][]byte{other}, redo: func() string { close(entered); <-release; return "OK" }}
	hold.Wake = make(chan struct{}, 1)
	srv.committer.enqueue(0, hold)
	go hold.Wait()
	<-entered

	cl := dial(t, addr)
	var cmds, want []string
	for i, k := range early {
		cmds = append(cmds, fmt.Sprintf("SET %s e%d", k, i), "GET "+k)
		want = append(want, "OK", fmt.Sprintf("VALUE e%d", i))
	}
	for i, k := range late {
		cmds = append(cmds, fmt.Sprintf("SET %s l%d", k, i))
		want = append(want, "OK")
	}
	if _, err := cl.c.Write([]byte(strings.Join(cmds, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); srv.committer.Stats().QueueDepth[0] < len(cmds); {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %v, want %d queued behind the held slot", srv.committer.Stats().QueueDepth, len(cmds))
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := srv.driver.Begin(0, -1); err != nil {
		t.Fatal(err)
	}
	if err := srv.driver.Run(); err != nil {
		t.Fatalf("split: %v", err)
	}
	movedEarly, movedLate := 0, 0
	for i := range early {
		if st.ShardFor([]byte(early[i])) != 0 {
			movedEarly++
		}
		if st.ShardFor([]byte(late[i])) != 0 {
			movedLate++
		}
	}
	if movedEarly == 0 || movedLate == 0 {
		t.Fatalf("split moved %d early and %d late keys; the test needs both", movedEarly, movedLate)
	}

	var gets []string
	for i, k := range late {
		gets = append(gets, "GET "+k)
		want = append(want, fmt.Sprintf("VALUE l%d", i))
	}
	if _, err := cl.c.Write([]byte(strings.Join(gets, "\n") + "\n")); err != nil {
		t.Fatal(err)
	}
	close(release)
	got := readLines(t, cl.r, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reply %d: got %q, want %q", i, got[i], want[i])
		}
	}
	cl.c.Close()
	shutdown(t, srv, done)
}
