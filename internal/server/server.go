// Package server is the network front-end of the sharded store: a
// line-oriented, pipelined TCP protocol (romulusd speaks it) over
// shard.Store, with group-committed writes — every acknowledged write is
// durable before its reply leaves the socket, and writes from all
// connections share durability rounds via the per-shard Committer (see
// group.go), so N concurrent writers pay far fewer than N psyncs.
//
// The complete wire contract — request grammar, every command's reply
// forms, the error taxonomy, pipelining semantics, and the per-command
// durability guarantee — is docs/PROTOCOL.md. Summary:
//
//	PING                  -> PONG
//	GET <key>             -> VALUE <value> | NOTFOUND
//	SET <key> <value>     -> OK             (durable before the reply)
//	DEL <key>             -> OK             (durable before the reply)
//	INCR <key> [delta]    -> INT <n>        (durable counter, default delta 1)
//	DECR <key> [delta]    -> INT <n>        (durable counter, default delta 1)
//	EXPIRE <key> <secs>   -> OK | NOTFOUND  (durable expiry deadline)
//	TTL <key>             -> TTL <secs> | TTL -1 | NOTFOUND
//	MULTI                 -> OK             (opens a queued batch)
//	  SET/DEL ...         -> QUEUED <n>     (inside MULTI)
//	  EXEC                -> OK <n>         (atomic durable commit, cross-shard safe)
//	  DISCARD             -> OK
//	STATS                 -> STATS <json>   (store + uptime + group-commit snapshot)
//	SCRUB <shard>         -> OK             (re-formats and readmits a quarantined shard)
//	SPLIT <shard>         -> OK <dst>       (starts an online split; runs in background)
//	PLACEMENT             -> PLACEMENT <json> (slot map + migration progress)
//	QUIT                  -> BYE            (server closes the connection)
//	anything else         -> ERR <message>
//
// # Pipelining
//
// Each connection has a reader goroutine and a writer goroutine. The reader
// parses and dispatches as many complete request lines as the client has
// sent without waiting for replies; the writer emits replies strictly in
// request order, coalescing bufio flushes (it flushes when its queue goes
// empty or before blocking on an unfinished write, not per reply). A client
// may therefore stream a burst of commands and then read the burst of
// replies. Replies never interleave or reorder; reads observe the
// connection's own earlier writes (the reader waits for this connection's
// outstanding writes before serving GET/TTL/STATS-free reads).
//
// # Group commit
//
// SET/DEL/INCR/DECR/EXPIRE and single-shard EXEC are executed by the
// shard's Committer loop: operations from all connections merge into one
// durable transaction per batch, and each reply is released only after the
// psync of the batch containing its write. Cross-shard EXEC runs the
// coordinator's two-phase protocol synchronously (still durable before the
// reply).
//
// # Degraded mode
//
// When the store quarantines a shard (media faults — see docs/FAULTS.md),
// operations routed to it answer with the typed reply
//
//	UNAVAIL shard=<n>[: reason]
//
// while every other shard keeps serving. SCRUB <n> re-formats the partition
// and readmits it. UNAVAIL is a distinct first token (not an ERR variant) so
// clients can retry elsewhere or back off without parsing prose.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/ptm"
	"repro/internal/shard"
)

// MaxLine bounds one protocol line (command + value).
const MaxLine = 1 << 20

// DefaultMaxBatchOps bounds a MULTI queue when Options.MaxBatchOps is 0.
const DefaultMaxBatchOps = 4096

// pipelineDepth bounds the replies a connection may have in flight; a reader
// that gets this far ahead of the writer blocks until replies drain, which
// also bounds per-connection memory.
const pipelineDepth = 256

// Options configure a Server.
type Options struct {
	// Registry receives net_* counters; nil keeps a private registry.
	Registry *obs.Registry
	// IdleTimeout closes a connection that sends no complete command for the
	// duration (0 = never). The deadline re-arms before every read, so a
	// slow-but-active client is not cut off; an idle one stops holding a
	// goroutine and a socket.
	IdleTimeout time.Duration
	// MaxBatchOps bounds the operations queued in one MULTI batch (0 =
	// DefaultMaxBatchOps; negative = unlimited). The op that would exceed the
	// bound answers "ERR batch too large" and discards the batch, so an
	// unbounded MULTI stream cannot grow server memory without limit.
	MaxBatchOps int
	// GroupMaxBatch bounds one group-commit batch transaction (0 =
	// DefaultGroupMaxBatch).
	GroupMaxBatch int
	// GroupLinger is how long a group-commit batch may wait for more
	// operations after its first arrives (0 = commit immediately with
	// whatever is queued — no added latency, batches still form under load).
	GroupLinger time.Duration
	// Now substitutes the clock used for EXPIRE/TTL deadlines (nil =
	// time.Now). Tests inject it to cross expiry boundaries deterministically.
	Now func() time.Time
	// Spans, when non-nil, turns on request-scoped tracing: every command is
	// assigned a server-wide request id and emits one SpanEvent per phase
	// (parse, queue_wait, batch_form, psync_wait, reply_flush, request) into
	// the recorder as its reply is flushed. Nil keeps tracing off — the hot
	// path then takes no timestamps beyond what group commit already takes.
	Spans *obs.SpanRecorder
}

// Server serves the protocol over a shard.Store.
type Server struct {
	st          *shard.Store
	committer   *Committer
	idleTimeout time.Duration
	maxBatchOps int
	now         func() time.Time
	spans       *obs.SpanRecorder
	started     time.Time
	reqSeq      atomic.Uint64

	// driver runs SPLIT's online shard migration (one at a time); splitWG
	// tracks the background run so Shutdown does not return while a split
	// still mutates the store.
	driver  *migrate.Driver
	splitWG sync.WaitGroup

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	wg      sync.WaitGroup
	drain   atomic.Bool
	connSeq atomic.Uint64

	connsTotal  *obs.Counter
	connsActive *obs.Gauge
	cmdGet      *obs.Counter
	cmdSet      *obs.Counter
	cmdDel      *obs.Counter
	cmdIncr     *obs.Counter
	cmdExpire   *obs.Counter
	cmdTTL      *obs.Counter
	cmdExec     *obs.Counter
	cmdErr      *obs.Counter
	cmdUnavail  *obs.Counter
	cmdScrub    *obs.Counter
	cmdSplit    *obs.Counter
	idleClosed  *obs.Counter
	flushes     *obs.Counter
}

// New wraps st in a protocol server and starts its group-commit loops
// (stopped by Shutdown).
func New(st *shard.Store, opts Options) *Server {
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	maxOps := opts.MaxBatchOps
	switch {
	case maxOps == 0:
		maxOps = DefaultMaxBatchOps
	case maxOps < 0:
		maxOps = 0 // unlimited
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return &Server{
		st: st,
		committer: NewCommitter(st, GroupOptions{
			MaxBatch: opts.GroupMaxBatch,
			Linger:   opts.GroupLinger,
			Registry: reg,
		}),
		driver:      migrate.New(st, migrate.Options{}),
		idleTimeout: opts.IdleTimeout,
		maxBatchOps: maxOps,
		now:         now,
		spans:       opts.Spans,
		started:     time.Now(),
		conns:       make(map[net.Conn]struct{}),
		connsTotal:  reg.Counter("net_conn_total"),
		connsActive: reg.Gauge("net_conn_active"),
		cmdGet:      reg.Counter("net_cmd_get_total"),
		cmdSet:      reg.Counter("net_cmd_set_total"),
		cmdDel:      reg.Counter("net_cmd_del_total"),
		cmdIncr:     reg.Counter("net_cmd_incr_total"),
		cmdExpire:   reg.Counter("net_cmd_expire_total"),
		cmdTTL:      reg.Counter("net_cmd_ttl_total"),
		cmdExec:     reg.Counter("net_cmd_exec_total"),
		cmdErr:      reg.Counter("net_cmd_err_total"),
		cmdUnavail:  reg.Counter("net_cmd_unavail_total"),
		cmdScrub:    reg.Counter("net_cmd_scrub_total"),
		cmdSplit:    reg.Counter("net_cmd_split_total"),
		idleClosed:  reg.Counter("net_conn_idle_closed_total"),
		flushes:     reg.Counter("net_reply_flush_total"),
	}
}

// Committer exposes the server's group-commit scheduler (benchmarks and
// crash harnesses submit through it directly).
func (s *Server) GroupCommitter() *Committer { return s.committer }

// StatsReply is the JSON object the STATS command marshals: the store
// snapshot (shard.Stats, flattened) plus the server-level fields an operator
// polls — uptime, which shards are quarantined, and group-commit batching
// health. docs/PROTOCOL.md pins the top-level keys; the conformance test
// diffs them against this struct, so renames cannot slip past the docs.
type StatsReply struct {
	shard.Stats
	UptimeSecs  float64             `json:"uptime_secs"`
	Quarantined []int               `json:"quarantined_shards"`
	Group       GroupStats          `json:"group_commit"`
	Placement   shard.PlacementInfo `json:"placement"`
}

// StatsReply snapshots the server for the STATS command (and romulusd's
// /stats endpoint, which serves the same object over HTTP).
func (s *Server) StatsReply() StatsReply {
	q := s.st.Quarantined()
	if q == nil {
		q = []int{} // pin the wire shape: always a list, never null
	}
	return StatsReply{
		Stats:       s.st.Stats(),
		UptimeSecs:  time.Since(s.started).Seconds(),
		Quarantined: q,
		Group:       s.committer.Stats(),
		Placement:   s.st.Placement(),
	}
}

// Commands returns every verb the server dispatches, sorted. The
// documentation conformance test diffs this set against docs/PROTOCOL.md's
// command table, so the wire reference cannot silently fall behind the
// dispatch switch.
func Commands() []string {
	return []string{
		"DECR", "DEL", "DISCARD", "EXEC", "EXPIRE", "GET", "INCR",
		"MULTI", "PING", "PLACEMENT", "QUIT", "SCRUB", "SET", "SPLIT",
		"STATS", "TTL",
	}
}

// Serve accepts connections on ln until Shutdown. It returns nil after a
// graceful drain, or the accept error that stopped it.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.drain.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsTotal.Inc()
		s.connsActive.Add(1)
		s.wg.Add(1)
		go s.handle(c)
	}
}

// Shutdown drains gracefully: the listener closes, blocked readers wake, and
// every connection finishes the commands it has already parsed (their
// replies flushed, writes durable) before closing. Connections still alive
// when ctx expires are closed forcibly. Either way the group-commit loops
// stop only after every connection is done, so no submitted write is
// stranded.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drain.Store(true)
	// An in-flight split rolls back if it has not cut over yet (the journal's
	// abort arm); past the cutover it runs forward to completion. Either way
	// the background run finishes before Shutdown returns, so the caller may
	// close the store.
	s.driver.Stop()
	s.mu.Lock()
	s.draining = true
	if s.ln != nil {
		s.ln.Close()
	}
	// Wake connections parked in Read; mid-command connections are not
	// blocked and notice the drain flag after replying.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.splitWG.Wait()
		s.committer.Close()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		s.splitWG.Wait()
		s.committer.Close()
		return ctx.Err()
	}
}

// spanInfo carries one request's phase timestamps from the reader goroutine
// through the group-commit pipeline to the writer goroutine, which emits the
// SpanEvents when the reply's flush completes (the true end of the request).
// Stamping discipline: the reader owns t0/parsed, the commit loop owns
// drain/txStart/durable (group.go), and the writer reads everything after
// the Pending resolves — the done-channel close orders those writes, so no
// field needs atomics.
type spanInfo struct {
	req  uint64
	conn uint64
	op   string

	t0      time.Time // reader picked the line off the socket
	parsed  time.Time // dispatch done: enqueued (writes) or resolved (reads)
	drain   time.Time // commit loop pulled the op off the shard queue
	txStart time.Time // the batch transaction containing the op began
	durable time.Time // the batch's psync completed; reply releasable

	shard    int
	batchSeq uint64
}

// spanPool recycles spanInfos: one is taken per traced request and returned
// by the writer after rendering, so tracing adds no steady-state heap churn
// (which on small hosts costs more in GC assists than the tracing itself).
// The render in flush is the last reference — the commit loop's stamps all
// happen before the Pending's done closes, and the writer renders only
// after.
var spanPool = sync.Pool{New: func() any { return new(spanInfo) }}

// renderSpan appends one request's phases to evs, which the flusher hands to
// the recorder in one EmitBatch. end is the flush timestamp that closed the
// request. Phase boundaries that never happened (reads and immediate errors
// skip the queue) emit nothing; clock granularity can legally yield
// zero-length phases, which still emit.
func renderSpan(evs []obs.SpanEvent, sp *spanInfo, end time.Time) []obs.SpanEvent {
	ev := obs.SpanEvent{Req: sp.req, Conn: sp.conn, Op: sp.op, Shard: sp.shard, BatchSeq: sp.batchSeq}
	// Straight-line phase emission: a closure here defeats inlining and costs
	// measurably on the per-request path.
	if !sp.t0.IsZero() && !sp.parsed.IsZero() {
		ev.Phase = obs.PhaseParse
		ev.StartNs = sp.t0.UnixNano()
		ev.DurNs = nsBetween(sp.t0, sp.parsed)
		evs = append(evs, ev)
	}
	if !sp.parsed.IsZero() && !sp.drain.IsZero() {
		ev.Phase = obs.PhaseQueueWait
		ev.StartNs = sp.parsed.UnixNano()
		ev.DurNs = nsBetween(sp.parsed, sp.drain)
		evs = append(evs, ev)
	}
	if !sp.drain.IsZero() && !sp.txStart.IsZero() {
		ev.Phase = obs.PhaseBatchForm
		ev.StartNs = sp.drain.UnixNano()
		ev.DurNs = nsBetween(sp.drain, sp.txStart)
		evs = append(evs, ev)
	}
	if !sp.txStart.IsZero() && !sp.durable.IsZero() {
		ev.Phase = obs.PhasePsyncWait
		ev.StartNs = sp.txStart.UnixNano()
		ev.DurNs = nsBetween(sp.txStart, sp.durable)
		evs = append(evs, ev)
	}
	flushFrom := sp.durable
	if flushFrom.IsZero() {
		flushFrom = sp.parsed
	}
	if !flushFrom.IsZero() && !end.IsZero() {
		ev.Phase = obs.PhaseReplyFlush
		ev.StartNs = flushFrom.UnixNano()
		ev.DurNs = nsBetween(flushFrom, end)
		evs = append(evs, ev)
	}
	if !sp.t0.IsZero() && !end.IsZero() {
		ev.Phase = obs.PhaseRequest
		ev.StartNs = sp.t0.UnixNano()
		ev.DurNs = nsBetween(sp.t0, end)
		evs = append(evs, ev)
	}
	return evs
}

// nsBetween is a saturating duration: monotonic-clock steps between stamps
// taken on different goroutines never render as underflowed uint64s.
func nsBetween(from, to time.Time) uint64 {
	d := to.Sub(from)
	if d < 0 {
		return 0
	}
	return uint64(d)
}

// token is one in-order reply slot: either an immediate reply text or a
// group-committed operation's future, plus the request's span (when tracing).
type token struct {
	text string
	p    *Pending
	sp   *spanInfo
}

func imm(text string) token { return token{text: text} }

// connState is the reader goroutine's per-connection state.
type connState struct {
	id    uint64
	multi *kvstore.Batch
	// cur is the span of the command currently being dispatched (nil when
	// tracing is off); submitWrite hands it to the Pending so the commit
	// loop can stamp the queue/batch/psync boundaries.
	cur *spanInfo
	// outstanding holds this connection's not-yet-committed writes; reads
	// barrier on them so a connection always observes its own writes.
	outstanding []*Pending
}

// track records a submitted write for the read barrier, pruning completed
// entries once the list grows (a deep pipeline of writes on one connection).
func (st *connState) track(p *Pending) {
	if len(st.outstanding) >= 32 {
		live := st.outstanding[:0]
		for _, q := range st.outstanding {
			select {
			case <-q.done:
			default:
				live = append(live, q)
			}
		}
		st.outstanding = live
	}
	st.outstanding = append(st.outstanding, p)
}

// barrier waits until every tracked write of this connection is durable —
// the read-your-writes fence for GET/TTL and for cross-shard EXEC (which
// bypasses the per-shard queues).
func (st *connState) barrier() {
	for _, p := range st.outstanding {
		<-p.done
	}
	st.outstanding = st.outstanding[:0]
}

// handle runs a connection's reader loop; replies flow through the writer
// goroutine so the reader can keep parsing ahead (pipelining).
func (s *Server) handle(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		s.connsActive.Add(-1)
		s.wg.Done()
	}()
	tokens := make(chan token, pipelineDepth)
	wdone := make(chan struct{})
	go s.writeReplies(c, tokens, wdone)

	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 4096), MaxLine)
	st := &connState{id: s.connSeq.Add(1)}
	for {
		if s.drain.Load() {
			break
		}
		if s.idleTimeout > 0 {
			// Re-arm before every read; a drain overrides with an immediate
			// deadline and is re-checked above and below either way.
			c.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		if !sc.Scan() {
			// EOF, an idle or drain-induced deadline, or a peer error:
			// nothing more to parse either way.
			var ne net.Error
			if !s.drain.Load() && errors.As(sc.Err(), &ne) && ne.Timeout() {
				s.idleClosed.Inc()
			}
			break
		}
		line := strings.TrimRight(sc.Text(), "\r")
		if line == "" {
			continue
		}
		if s.spans != nil {
			sp := spanPool.Get().(*spanInfo)
			*sp = spanInfo{req: s.reqSeq.Add(1), conn: st.id, t0: time.Now(), shard: -1}
			st.cur = sp
		}
		tok, quit := s.dispatch(line, st)
		if sp := st.cur; sp != nil {
			st.cur = nil
			if sp.parsed.IsZero() {
				// Immediate reply (read, protocol error, MULTI bookkeeping):
				// dispatch resolved it right here.
				sp.parsed = time.Now()
			}
			if sp.op == "" {
				sp.op = verbOf(line)
			}
			tok.sp = sp
		}
		tokens <- tok
		if quit {
			break
		}
	}
	// No more tokens; let the writer drain and flush what was parsed, then
	// close the socket (the deferred Close runs after wdone).
	close(tokens)
	<-wdone
}

// writeReplies is a connection's writer goroutine: it resolves reply tokens
// strictly in request order and coalesces flushes — one flush per drained
// burst (when its queue goes empty) and one before blocking on a write that
// has not committed yet, never one per reply.
func (s *Server) writeReplies(c net.Conn, tokens <-chan token, wdone chan<- struct{}) {
	defer close(wdone)
	w := bufio.NewWriter(c)
	dead := false  // the socket failed; keep draining tokens without writing
	dirty := false // unflushed replies are buffered
	var spans []*spanInfo
	var evs []obs.SpanEvent // reused render buffer, one EmitBatch per flush
	flush := func() {
		if dirty && !dead {
			s.flushes.Inc()
			if w.Flush() != nil {
				dead = true
				c.Close() // wake the reader; the connection is useless now
			}
		}
		dirty = false
		if len(spans) > 0 {
			// One flush timestamp closes every span whose reply it carried;
			// emitted even on a dead socket (the work still happened).
			end := time.Now()
			for _, sp := range spans {
				evs = renderSpan(evs, sp, end)
				spanPool.Put(sp)
			}
			s.spans.EmitBatch(evs)
			evs = evs[:0]
			spans = spans[:0]
		}
	}
	for tok := range tokens {
		text := tok.text
		if tok.p != nil {
			select {
			case <-tok.p.done:
			default:
				// About to block on a durability round: don't sit on replies
				// the client could already be reading.
				flush()
				<-tok.p.done
			}
			text = tok.p.text
		}
		if !dead {
			w.WriteString(text)
			if err := w.WriteByte('\n'); err != nil {
				dead = true
				c.Close()
			}
			dirty = true
		}
		if tok.sp != nil {
			spans = append(spans, tok.sp)
		}
		if len(tokens) == 0 {
			flush()
		}
	}
	flush()
}

// dispatch executes one command line, returning its reply token and whether
// the connection should close. Immediate commands (reads, protocol errors,
// MULTI queueing) resolve here; writes return futures resolved by the
// group-commit loops.
func (s *Server) dispatch(line string, st *connState) (token, bool) {
	verb := line
	rest := ""
	if i := strings.IndexByte(line, ' '); i >= 0 {
		verb, rest = line[:i], line[i+1:]
	}
	switch strings.ToUpper(verb) {
	case "PING":
		return imm("PONG"), false
	case "GET":
		key, errRep, ok := s.oneKey("GET", rest)
		if !ok {
			return imm(errRep), false
		}
		s.cmdGet.Inc()
		st.barrier()
		return imm(s.readKey(key)), false
	case "SET":
		key, val, ok := splitKeyValue(rest)
		if !ok {
			return imm(s.errf("SET needs a key and a value")), false
		}
		if errRep, ok := s.checkKey(key); !ok {
			return imm(errRep), false
		}
		s.cmdSet.Inc()
		if st.multi != nil {
			return s.queueMulti(st, false, key, val)
		}
		kb := []byte(key)
		p := s.submitWrite(st, kb, "set", setOp(kb, []byte(val)))
		return token{p: p}, false
	case "DEL":
		key, errRep, ok := s.oneKey("DEL", rest)
		if !ok {
			return imm(errRep), false
		}
		s.cmdDel.Inc()
		if st.multi != nil {
			return s.queueMulti(st, true, key, "")
		}
		kb := []byte(key)
		p := s.submitWrite(st, kb, "del", delOp(kb))
		return token{p: p}, false
	case "INCR", "DECR":
		op := strings.ToLower(verb)
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return imm(s.errf("%s needs a key and an optional integer delta", strings.ToUpper(verb))), false
		}
		key := fields[0]
		if errRep, ok := s.checkKey(key); !ok {
			return imm(errRep), false
		}
		delta := int64(1)
		if len(fields) == 2 {
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return imm(s.errf("%s delta is not an integer", strings.ToUpper(verb))), false
			}
			delta = n
		}
		if op == "decr" {
			delta = -delta
		}
		if st.multi != nil {
			return imm(s.errf("%s cannot be queued in MULTI", strings.ToUpper(verb))), false
		}
		s.cmdIncr.Inc()
		kb := []byte(key)
		p := s.submitWrite(st, kb, op, s.incrOp(kb, delta))
		return token{p: p}, false
	case "EXPIRE":
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return imm(s.errf("EXPIRE needs a key and a seconds count")), false
		}
		key := fields[0]
		if errRep, ok := s.checkKey(key); !ok {
			return imm(errRep), false
		}
		secs, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return imm(s.errf("EXPIRE seconds is not an integer")), false
		}
		if st.multi != nil {
			return imm(s.errf("EXPIRE cannot be queued in MULTI")), false
		}
		s.cmdExpire.Inc()
		kb := []byte(key)
		p := s.submitWrite(st, kb, "expire", s.expireOp(kb, secs))
		return token{p: p}, false
	case "TTL":
		key, errRep, ok := s.oneKey("TTL", rest)
		if !ok {
			return imm(errRep), false
		}
		s.cmdTTL.Inc()
		st.barrier()
		return imm(s.ttlReply(key)), false
	case "MULTI":
		if st.multi != nil {
			return imm(s.errf("MULTI already open")), false
		}
		st.multi = &kvstore.Batch{}
		return imm("OK"), false
	case "EXEC":
		if st.multi == nil {
			return imm(s.errf("EXEC without MULTI")), false
		}
		b := st.multi
		st.multi = nil
		s.cmdExec.Inc()
		return s.execMulti(st, b), false
	case "DISCARD":
		if st.multi == nil {
			return imm(s.errf("DISCARD without MULTI")), false
		}
		st.multi = nil
		return imm("OK"), false
	case "STATS":
		js, err := json.Marshal(s.StatsReply())
		if err != nil {
			return imm(s.errf("stats: %v", err)), false
		}
		return imm("STATS " + string(js)), false
	case "SCRUB":
		arg := strings.TrimSpace(rest)
		n, err := strconv.Atoi(arg)
		if arg == "" || err != nil {
			return imm(s.errf("SCRUB needs a shard index")), false
		}
		s.cmdScrub.Inc()
		if err := s.st.Scrub(n); err != nil {
			return imm(s.errf("scrub: %v", err)), false
		}
		return imm("OK"), false
	case "SPLIT":
		arg := strings.TrimSpace(rest)
		n, err := strconv.Atoi(arg)
		if arg == "" || err != nil {
			return imm(s.errf("SPLIT needs a source shard index")), false
		}
		s.cmdSplit.Inc()
		return imm(s.startSplit(n)), false
	case "PLACEMENT":
		// Driver status first: Status queues behind the stepping driver's
		// lock, possibly across cutover and cleanup, so a slot map read
		// before it can predate the cutover of a split it reports "done".
		status := s.driver.Status()
		reply := struct {
			shard.PlacementInfo
			Driver migrate.Status `json:"driver"`
		}{s.st.Placement(), status}
		js, err := json.Marshal(reply)
		if err != nil {
			return imm(s.errf("placement: %v", err)), false
		}
		return imm("PLACEMENT " + string(js)), false
	case "QUIT":
		return imm("BYE"), true
	default:
		return imm(s.errf("unknown command %q", verb)), false
	}
}

// startSplit provisions a fresh shard, begins moving half of src's slots to
// it, and runs the copy/cutover/cleanup phases in the background — the
// store keeps serving throughout (poll PLACEMENT or STATS for progress).
// The reply names the destination shard. One migration runs at a time.
func (s *Server) startSplit(src int) string {
	if s.drain.Load() {
		return s.errf("split: server is shutting down")
	}
	dst, err := s.driver.Begin(src, -1)
	if err != nil {
		if errors.Is(err, migrate.ErrBusy) {
			return s.errf("migration already in progress")
		}
		return s.errf("split: %v", err)
	}
	// The new shard needs a commit loop before any write routes to it at
	// cutover.
	s.committer.EnsureShards(s.st.NumShards())
	s.splitWG.Add(1)
	go func() {
		defer s.splitWG.Done()
		// A terminal error (or a Stop-induced rollback) is recorded in the
		// driver's Status, which PLACEMENT exposes.
		_ = s.driver.Run()
	}()
	return "OK " + strconv.Itoa(dst)
}

// submitWrite routes one write to its shard's group-commit loop and tracks
// the future for the connection's read barrier. The routing keys (base key
// plus its expiry sidecar — every write body may touch both) and the redo
// closure let the commit loop re-dispatch the write if a migration cutover
// moves the key off the submitted shard while it queues.
func (s *Server) submitWrite(st *connState, key []byte, op string, fn OpFunc) *Pending {
	keys := [][]byte{key, expiryKey(key)}
	redo := func() string { return s.soloWrite(keys, op, fn) }
	p := s.committer.submitSpan(s.st.ShardFor(key), st.id, op, st.cur, keys, redo, fn)
	st.track(p)
	return p
}

// soloWrite runs one re-routed operation on whatever shard owns its keys
// now, under its own route pin (dirty-marking the keys if they are moving
// again).
func (s *Server) soloWrite(keys [][]byte, op string, fn OpFunc) string {
	h := s.st.BeginWrite(keys...)
	defer h.Done()
	var text string
	err := s.st.Update(h.Route(keys[0]), func(tx ptm.Tx, db *kvstore.DB) error {
		t, e := fn(tx, db)
		if e != nil {
			return e
		}
		text = t
		return nil
	})
	if err != nil {
		return s.opReply(op, err)
	}
	return text
}

// verbOf uppercases a line's command word for span labeling.
func verbOf(line string) string {
	if i := strings.IndexByte(line, ' '); i >= 0 {
		line = line[:i]
	}
	return strings.ToUpper(line)
}

// queueMulti appends one SET/DEL to the open MULTI batch, enforcing the
// queue bound.
func (s *Server) queueMulti(st *connState, del bool, key, val string) (token, bool) {
	if s.maxBatchOps > 0 && st.multi.Len() >= s.maxBatchOps {
		st.multi = nil
		return imm(s.errf("batch too large")), false
	}
	if del {
		st.multi.Delete([]byte(key))
	} else {
		st.multi.Put([]byte(key), []byte(val))
	}
	return imm(fmt.Sprintf("QUEUED %d", st.multi.Len())), false
}

// execMulti commits a MULTI batch: single-shard batches ride the shard's
// group-commit loop (sharing a durability round with other connections);
// cross-shard batches run the coordinator's two-phase protocol
// synchronously, after a barrier so they order after this connection's
// queued writes.
func (s *Server) execMulti(st *connState, b *kvstore.Batch) token {
	n := b.Len()
	if n == 0 {
		return imm("OK 0")
	}
	// Expand with expiry-sidecar sweeps (a SET/DEL clears any deadline on
	// the key, exactly like the non-MULTI commands) and collect the shards
	// touched. Sidecars route with their base key, so they never widen the
	// shard set.
	ex := &kvstore.Batch{}
	only := -1
	single := true
	b.Each(func(del bool, key, val []byte) {
		if del {
			ex.Delete(key)
		} else {
			ex.Put(key, val)
		}
		ex.Delete(expiryKey(key))
		if sh := s.st.ShardFor(key); only == -1 {
			only = sh
		} else if sh != only {
			single = false
		}
	})
	if single {
		reply := fmt.Sprintf("OK %d", n)
		var keys [][]byte
		ex.Each(func(del bool, key, val []byte) { keys = append(keys, key) })
		// If a cutover moves any of the batch's keys before it commits, the
		// redo path re-dispatches through the store's write front door,
		// which regroups by current ownership (and runs the two-phase
		// protocol if the batch is now cross-shard).
		redo := func() string {
			if err := s.st.Write(ex); err != nil {
				return s.opReply("exec", err)
			}
			return reply
		}
		p := s.committer.submitSpan(only, st.id, "exec", st.cur, keys, redo, func(tx ptm.Tx, db *kvstore.DB) (string, error) {
			if err := db.Apply(tx, ex); err != nil {
				return "", err
			}
			return reply, nil
		})
		st.track(p)
		return token{p: p}
	}
	st.barrier()
	if err := s.st.Write(ex); err != nil {
		return imm(s.opReply("exec", err))
	}
	return imm(fmt.Sprintf("OK %d", n))
}

// expiryKey is the shard-colocated sidecar key holding a key's expiry
// deadline (absolute UnixNano, decimal).
func expiryKey(key []byte) []byte { return shard.SidecarKey("exp", key) }

// expiredAt reports whether key's expiry sidecar says it is dead at now.
// Absent or malformed sidecars mean "live".
func expiredAt(tx ptm.Tx, db *kvstore.DB, key []byte, now time.Time) bool {
	e, err := db.GetTx(tx, expiryKey(key))
	if err != nil {
		return false
	}
	ns, perr := strconv.ParseInt(string(e), 10, 64)
	if perr != nil {
		return false
	}
	return now.UnixNano() >= ns
}

// setOp is SET's group-committed body: store the pair and clear any expiry.
func setOp(key, val []byte) OpFunc {
	return func(tx ptm.Tx, db *kvstore.DB) (string, error) {
		if err := db.PutTx(tx, key, val); err != nil {
			return "", err
		}
		if err := db.DeleteTx(tx, expiryKey(key)); err != nil {
			return "", err
		}
		return "OK", nil
	}
}

// delOp is DEL's group-committed body: remove the pair and its expiry.
func delOp(key []byte) OpFunc {
	return func(tx ptm.Tx, db *kvstore.DB) (string, error) {
		if err := db.DeleteTx(tx, key); err != nil {
			return "", err
		}
		if err := db.DeleteTx(tx, expiryKey(key)); err != nil {
			return "", err
		}
		return "OK", nil
	}
}

// incrOp is INCR/DECR's group-committed body: read-modify-write the decimal
// counter in the batch transaction. An expired value counts as absent
// (counter restarts at 0+delta); non-integer values and overflow are
// protocol-level failures — replies, not batch aborts.
func (s *Server) incrOp(key []byte, delta int64) OpFunc {
	return func(tx ptm.Tx, db *kvstore.DB) (string, error) {
		var cur int64
		v, err := db.GetTx(tx, key)
		switch {
		case errors.Is(err, kvstore.ErrNotFound):
		case err != nil:
			return "", err
		default:
			if !expiredAt(tx, db, key, s.now()) {
				n, perr := strconv.ParseInt(string(v), 10, 64)
				if perr != nil {
					return "ERR value is not an integer", nil
				}
				cur = n
			}
		}
		n := cur + delta
		if (delta > 0 && n < cur) || (delta < 0 && n > cur) {
			return "ERR increment overflows a 64-bit integer", nil
		}
		if err := db.PutTx(tx, key, strconv.AppendInt(nil, n, 10)); err != nil {
			return "", err
		}
		if err := db.DeleteTx(tx, expiryKey(key)); err != nil {
			return "", err
		}
		return "INT " + strconv.FormatInt(n, 10), nil
	}
}

// expireOp is EXPIRE's group-committed body: set (or, for secs <= 0,
// immediately enforce) a key's expiry deadline. Missing and already-expired
// keys answer NOTFOUND; an expired key is swept while we are here.
func (s *Server) expireOp(key []byte, secs int64) OpFunc {
	return func(tx ptm.Tx, db *kvstore.DB) (string, error) {
		now := s.now()
		_, err := db.GetTx(tx, key)
		if errors.Is(err, kvstore.ErrNotFound) {
			return "NOTFOUND", nil
		}
		if err != nil {
			return "", err
		}
		if expiredAt(tx, db, key, now) {
			if err := db.DeleteTx(tx, key); err != nil {
				return "", err
			}
			if err := db.DeleteTx(tx, expiryKey(key)); err != nil {
				return "", err
			}
			return "NOTFOUND", nil
		}
		if secs <= 0 {
			if err := db.DeleteTx(tx, key); err != nil {
				return "", err
			}
			if err := db.DeleteTx(tx, expiryKey(key)); err != nil {
				return "", err
			}
			return "OK", nil
		}
		deadline := now.Add(time.Duration(secs) * time.Second).UnixNano()
		if err := db.PutTx(tx, expiryKey(key), strconv.AppendInt(nil, deadline, 10)); err != nil {
			return "", err
		}
		return "OK", nil
	}
}

// readKey serves GET: one read transaction on the key's shard, honoring lazy
// expiry (an expired pair reads as NOTFOUND; it is swept by the next write
// to the key, keeping reads wait-free). ViewKey routes and reads under one
// left-right arrival, so reads stay wait-free even mid-migration — they
// never block on the cutover fence.
func (s *Server) readKey(key string) string {
	kb := []byte(key)
	var reply string
	err := s.st.ViewKey(kb, func(tx ptm.Tx, db *kvstore.DB) error {
		v, err := db.GetTx(tx, kb)
		if errors.Is(err, kvstore.ErrNotFound) {
			reply = "NOTFOUND"
			return nil
		}
		if err != nil {
			return err
		}
		if expiredAt(tx, db, kb, s.now()) {
			reply = "NOTFOUND"
			return nil
		}
		reply = "VALUE " + string(v)
		return nil
	})
	if err != nil {
		return s.opReply("get", err)
	}
	return reply
}

// ttlReply serves TTL: remaining whole seconds (rounded up), TTL -1 for keys
// without a deadline, NOTFOUND for absent or expired keys.
func (s *Server) ttlReply(key string) string {
	kb := []byte(key)
	now := s.now()
	var reply string
	err := s.st.ViewKey(kb, func(tx ptm.Tx, db *kvstore.DB) error {
		_, err := db.GetTx(tx, kb)
		if errors.Is(err, kvstore.ErrNotFound) {
			reply = "NOTFOUND"
			return nil
		}
		if err != nil {
			return err
		}
		e, err := db.GetTx(tx, expiryKey(kb))
		if errors.Is(err, kvstore.ErrNotFound) {
			reply = "TTL -1"
			return nil
		}
		if err != nil {
			return err
		}
		ns, perr := strconv.ParseInt(string(e), 10, 64)
		if perr != nil {
			reply = "TTL -1"
			return nil
		}
		rem := ns - now.UnixNano()
		if rem <= 0 {
			reply = "NOTFOUND"
			return nil
		}
		secs := (rem + int64(time.Second) - 1) / int64(time.Second)
		reply = "TTL " + strconv.FormatInt(secs, 10)
		return nil
	})
	if err != nil {
		return s.opReply("ttl", err)
	}
	return reply
}

// oneKey parses and validates a single-key argument.
func (s *Server) oneKey(verb, rest string) (key, errReply string, ok bool) {
	key = strings.TrimSpace(rest)
	if key == "" || strings.ContainsAny(key, " \t") {
		return "", s.errf("%s needs exactly one key", verb), false
	}
	if errRep, ok := s.checkKey(key); !ok {
		return "", errRep, false
	}
	return key, "", true
}

// checkKey rejects keys the store cannot route faithfully: NUL is the
// sidecar marker (see shard.SidecarKey), so client keys must not contain it.
func (s *Server) checkKey(key string) (errReply string, ok bool) {
	if strings.IndexByte(key, 0) >= 0 {
		return s.errf("key must not contain NUL"), false
	}
	return "", true
}

// splitKeyValue parses "key value..." where value is the rest of the line
// (may be empty, may contain spaces).
func splitKeyValue(rest string) (key, val string, ok bool) {
	if rest == "" {
		return "", "", false
	}
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		key, val = rest[:i], rest[i+1:]
	} else {
		key = rest
	}
	if key == "" {
		return "", "", false
	}
	return key, val, true
}

func (s *Server) errf(format string, args ...any) string {
	s.cmdErr.Inc()
	return "ERR " + fmt.Sprintf(format, args...)
}

// opReply renders a store error: a quarantined shard's *UnavailError becomes
// the typed UNAVAIL wire reply verbatim, everything else an ERR.
func (s *Server) opReply(op string, err error) string {
	var ue *shard.UnavailError
	if errors.As(err, &ue) {
		s.cmdUnavail.Inc()
		return ue.Error()
	}
	return s.errf("%s: %v", op, err)
}
