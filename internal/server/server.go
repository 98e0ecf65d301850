// Package server is the network front-end of the sharded store: a
// line-oriented, pipelined TCP protocol (romulusd speaks it) over
// shard.Store, with group-committed writes — every acknowledged write is
// durable before its reply leaves the socket, and writes from all
// connections share durability rounds via the per-shard Committer (see
// group.go), so N concurrent writers pay far fewer than N psyncs.
//
// The complete wire contract — request grammar, every command's reply
// forms, the error taxonomy, pipelining semantics, and the per-command
// durability guarantee — is docs/PROTOCOL.md. The verbs: PING, GET, SET,
// DEL, INCR, DECR, EXPIRE, TTL, MULTI/EXEC/DISCARD (a queued batch, atomic
// and durable at EXEC, cross-shard safe), STATS, SCRUB (readmit a
// quarantined shard), SPLIT (start an online split), PLACEMENT and QUIT.
//
// # Pipelining
//
// Each connection is served by one goroutine that runs every request to
// completion in bursts. It parses request lines in place in its
// bufio.Reader, without copying them out: the first line of a burst may
// block, and the burst then takes every further line the client has already
// sent, up to pipelineDepth. It completes the burst's operations, writes the
// replies strictly in request order and flushes once per burst, never once
// per reply. Replies never interleave or reorder. Reads observe the
// connection's own earlier writes: a GET/TTL behind this burst's queued
// writes on the key's shard joins that shard's queue and executes after
// them, in commit order (see Server.read).
//
// # Group commit
//
// SET/DEL/INCR/DECR/EXPIRE, single-shard EXEC and the reads above go
// through the shard's Committer queue: operations from all connections merge
// into one durable transaction per batch, and each reply is released only
// after the psync of the batch containing it. The batch runs on whichever
// goroutine first needs a result and finds the shard's leader slot free —
// usually a connection's own reader, after it has queued its burst and
// before it writes a byte (see group.go). Cross-shard EXEC first completes
// this connection's queued operations, then runs the coordinator's
// two-phase protocol inline (still durable before the reply).
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
	"bytes"
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
	"unicode"

	"repro/internal/kvstore"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/ptm"
	"repro/internal/shard"
)

// maxLine bounds one protocol line (command + value).
const maxLine = 1 << 20

// defaultMaxBatchOps bounds a MULTI queue when Options.MaxBatchOps is not
// positive.
const defaultMaxBatchOps = 4096

// pipelineDepth caps the commands one burst parses before the connection
// completes them and writes their replies, which bounds per-connection
// memory.
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
	// MaxBatchOps bounds the operations queued in one MULTI batch (≤ 0 =
	// defaultMaxBatchOps). The op that would exceed the bound answers "ERR
	// batch too large" and discards the batch, so an endless MULTI stream
	// cannot grow server memory without limit.
	MaxBatchOps int
	// now substitutes the clock used for EXPIRE/TTL deadlines (nil =
	// time.Now). Tests inject it to cross expiry boundaries deterministically.
	now func() time.Time
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

// New wraps st in a protocol server.
func New(st *shard.Store, opts Options) *Server {
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	maxOps := opts.MaxBatchOps
	if maxOps <= 0 {
		maxOps = defaultMaxBatchOps
	}
	now := opts.now
	if now == nil {
		now = time.Now
	}
	return &Server{
		st:          st,
		committer:   NewCommitter(st, GroupOptions{registry: reg}),
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
// when ctx expires are closed forcibly. Either way the committer drains
// after every connection is done, so no submitted write is stranded.
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

// spanInfo carries one request's phase timestamps through the group commit;
// the connection emits its SpanEvents when the reply's flush completes (the
// true end of the request). Stamping discipline: the connection owns
// t0/parsed, the batch's leader owns drain/txStart/durable (group.go), and
// the connection reads everything after the Pending resolves — the done
// flag's store and load order those writes, so no field needs atomics.
type spanInfo struct {
	req  uint64
	conn uint64
	op   string

	t0      time.Time // reader picked the line off the socket
	parsed  time.Time // dispatch done: enqueued (writes) or resolved (reads)
	drain   time.Time // a leader took the op off the shard queue
	txStart time.Time // the batch transaction containing the op began
	durable time.Time // the batch's psync completed; reply releasable

	shard    int
	batchSeq uint64
}

// spanPool recycles spanInfos: one is taken per traced request and returned
// after rendering, so tracing adds no steady-state heap churn (which on
// small hosts costs more in GC assists than the tracing itself). The render
// at the flush is the last reference — the leader's stamps all happen before
// the Pending's done flag is set, and the connection renders only after.
var spanPool = sync.Pool{New: func() any { return new(spanInfo) }}

// renderSpan appends one request's phases to evs, which the connection
// hands to the recorder in one EmitBatch per flush. end is the flush
// timestamp that closed the request. Phase boundaries that never happened (reads and immediate errors
// skip the queue) emit nothing; clock granularity can legally yield
// zero-length phases, which still emit.
func renderSpan(evs []obs.SpanEvent, sp *spanInfo, end time.Time) []obs.SpanEvent {
	ev := obs.SpanEvent{Req: sp.req, Conn: sp.conn, Op: sp.op, Shard: sp.shard, BatchSeq: sp.batchSeq}
	evs = appendPhase(evs, ev, obs.PhaseParse, sp.t0, sp.parsed)
	evs = appendPhase(evs, ev, obs.PhaseQueueWait, sp.parsed, sp.drain)
	evs = appendPhase(evs, ev, obs.PhaseBatchForm, sp.drain, sp.txStart)
	evs = appendPhase(evs, ev, obs.PhasePsyncWait, sp.txStart, sp.durable)
	flushFrom := sp.durable
	if flushFrom.IsZero() {
		flushFrom = sp.parsed
	}
	evs = appendPhase(evs, ev, obs.PhaseReplyFlush, flushFrom, end)
	return appendPhase(evs, ev, obs.PhaseRequest, sp.t0, end)
}

// appendPhase appends ev as phase name from..to, if both boundaries happened.
func appendPhase(evs []obs.SpanEvent, ev obs.SpanEvent, name string, from, to time.Time) []obs.SpanEvent {
	if from.IsZero() || to.IsZero() {
		return evs
	}
	ev.Phase, ev.StartNs, ev.DurNs = name, from.UnixNano(), nsBetween(from, to)
	return append(evs, ev)
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

// connState is one connection's state.
type connState struct {
	id    uint64
	multi *kvstore.Batch
	// cur is the span of the command currently being dispatched (nil when
	// tracing is off); submit hands it to the Pending so the leader can
	// stamp the queue/batch/psync boundaries.
	cur *spanInfo
	// wake is the channel the connection parks on while another goroutine
	// leads the batch carrying its operation.
	wake chan struct{}
	// toks are the burst's replies in request order. queued is the shard
	// every operation of the burst not yet completed went to: -1 none, -2
	// more than one. pending counts the burst's queued operations.
	toks    []token
	queued  int
	pending int
	evs     []obs.SpanEvent // reused span render buffer
}

// submit queues p on shard sh as this connection's operation.
func (s *Server) submit(st *connState, sh int, p *Pending) token {
	if st.queued == -1 {
		st.queued = sh
	} else if st.queued != sh {
		st.queued = -2
	}
	p.Owner, p.sp, p.Wake = st.id, st.cur, st.wake
	st.pending++
	return token{p: s.committer.enqueue(sh, p)}
}

// wait returns p's reply once its durability round completed. An operation
// of a burst that queued more than one watches a held slot (the queue lets
// one waiter at a time), so the connection leads the moment the slot frees
// instead of paying a wake-up per round; a lone operation parks, which is
// what lets two depth-1 connections that take turns share a round
// (flatcombine.Queue.Wait).
func (st *connState) wait(p *Pending) string {
	p.Watch = st.pending > 1
	return p.Wait()
}

// complete finishes every operation the burst has queued so far — for a
// read that queue order cannot place, and for cross-shard EXEC.
func (st *connState) complete() {
	for _, t := range st.toks {
		if t.p != nil {
			st.wait(t.p)
		}
	}
	st.queued = -1
}

// readLine returns the next request line without its "\n", valid until the
// next call; a line longer than r's buffer is assembled in *long. err ends
// the input, after the unterminated tail (if any) is returned with it. A
// line of maxLine or more bytes fails with bufio.ErrTooLong.
func readLine(r *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		buf := append((*long)[:0], line...)
		for err == bufio.ErrBufferFull && len(buf) < maxLine {
			line, err = r.ReadSlice('\n')
			buf = append(buf, line...)
		}
		*long, line = buf, buf
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if len(line) >= maxLine {
		return nil, bufio.ErrTooLong
	}
	return line, err
}

// handle serves a connection, one burst at a time: parse every command the
// client has sent (pipelining), complete them, reply.
func (s *Server) handle(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		s.connsActive.Add(-1)
		s.wg.Done()
	}()
	st := &connState{id: s.connSeq.Add(1), wake: make(chan struct{}, 1), queued: -1}
	r, w := bufio.NewReader(c), bufio.NewWriter(c)
	var long []byte
	for quit := false; !quit && !s.drain.Load(); {
		if s.idleTimeout > 0 {
			// Re-arm before every burst; a drain overrides with an immediate
			// deadline and is re-checked above either way.
			c.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		var err error
		for len(st.toks) < pipelineDepth {
			var line []byte
			line, err = readLine(r, &long)
			if line = bytes.TrimRight(line, "\r"); len(line) > 0 {
				var tok token
				tok, quit = s.dispatchTraced(line, st)
				st.toks = append(st.toks, tok)
			}
			// A buffered partial line is one the client is still sending, so
			// the burst waits for its end. A drain parses nothing more.
			if err != nil || quit || r.Buffered() == 0 || s.drain.Load() {
				break
			}
		}
		if !s.reply(w, st) {
			return
		}
		if cap(long) > r.Size() {
			// The burst's lines are parsed and answered: a long line's
			// buffer is garbage now, and an idle connection must not pin it.
			long = nil
		}
		if err != nil {
			// EOF, an idle or drain-induced deadline, an oversized line or a
			// peer error: nothing more to parse either way.
			var ne net.Error
			if !s.drain.Load() && errors.As(err, &ne) && ne.Timeout() {
				s.idleClosed.Inc()
			}
			return
		}
	}
}

// dispatchTraced dispatches one command, opening and closing its span's
// parse phase when tracing.
func (s *Server) dispatchTraced(line []byte, st *connState) (token, bool) {
	if s.spans == nil {
		return s.dispatch(line, st)
	}
	sp := spanPool.Get().(*spanInfo)
	*sp = spanInfo{req: s.reqSeq.Add(1), conn: st.id, t0: time.Now(), shard: -1}
	st.cur = sp
	tok, quit := s.dispatch(line, st)
	st.cur = nil
	if sp.parsed.IsZero() {
		// Immediate reply (direct read, protocol error, MULTI bookkeeping):
		// dispatch resolved it right here.
		sp.parsed = time.Now()
	}
	if sp.op == "" {
		verb, _, _ := bytes.Cut(line, []byte{' '})
		sp.op = strings.ToUpper(string(verb))
	}
	tok.sp = sp
	return tok, quit
}

// reply completes the burst, writes its replies in request order and
// flushes once, then emits the burst's spans. It reports false once the
// socket failed. Only this goroutine writes the socket, and never while it
// leads a batch: Wait returns only after the slot is free again.
func (s *Server) reply(w *bufio.Writer, st *connState) bool {
	if len(st.toks) == 0 {
		return true
	}
	for _, tok := range st.toks {
		text := tok.text
		if p := tok.p; p != nil {
			text = st.wait(p)
			p.release()
		}
		// A write error sticks in w; the operations still complete.
		w.WriteString(text)
		w.WriteByte('\n')
	}
	s.flushes.Inc()
	ok := w.Flush() == nil
	if s.spans != nil {
		// One flush timestamp closes every span whose reply it carried;
		// emitted even on a dead socket (the work still happened).
		end := time.Now()
		evs := st.evs[:0]
		for _, tok := range st.toks {
			evs = renderSpan(evs, tok.sp, end)
			spanPool.Put(tok.sp)
		}
		s.spans.EmitBatch(evs)
		st.evs = evs[:0]
	}
	clear(st.toks)
	st.toks, st.queued, st.pending = st.toks[:0], -1, 0
	return ok
}

// dispatch executes one command line, returning its reply token and whether
// the connection should close. Immediate commands (reads, protocol errors,
// MULTI queueing) resolve here; writes return futures the group commit
// resolves. The verb is matched ASCII case-insensitively without
// copying the line.
func (s *Server) dispatch(line []byte, st *connState) (token, bool) {
	verb, rest, _ := bytes.Cut(line, []byte{' '})
	var up [len("PLACEMENT")]byte
	if len(verb) <= len(up) {
		for i, c := range verb {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			up[i] = c
		}
	}
	switch string(up[:min(len(verb), len(up))]) {
	case "PING":
		return imm("PONG"), false
	case "GET", "TTL":
		name, op, body, n := "GET", "get", getBody, s.cmdGet
		if up[0] == 'T' {
			name, op, body, n = "TTL", "ttl", ttlBody, s.cmdTTL
		}
		key, errRep, ok := s.oneKey(name, rest)
		if !ok {
			return imm(errRep), false
		}
		n.Inc()
		return s.read(st, key, op, body), false
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
		p := newPending("set", setBody)
		p.setKey(key, val)
		return s.submit(st, s.st.ShardFor(p.key), p), false
	case "DEL":
		key, errRep, ok := s.oneKey("DEL", rest)
		if !ok {
			return imm(errRep), false
		}
		s.cmdDel.Inc()
		if st.multi != nil {
			return s.queueMulti(st, true, key, nil)
		}
		p := newPending("del", delBody)
		p.setKey(key, nil)
		return s.submit(st, s.st.ShardFor(p.key), p), false
	case "INCR", "DECR", "EXPIRE":
		name, op, body, arg, ctr := "EXPIRE", "expire", expireBody, "seconds", s.cmdExpire
		if up[0] != 'E' {
			name, op, body, arg, ctr = "INCR", "incr", incrBody, "delta", s.cmdIncr
			if up[0] == 'D' {
				name, op = "DECR", "decr"
			}
		}
		key, more := nextField(rest)
		num, more := nextField(more)
		extra, _ := nextField(more)
		if len(key) == 0 || len(extra) > 0 || (op == "expire" && len(num) == 0) {
			if op == "expire" {
				return imm(s.errf("EXPIRE needs a key and a seconds count")), false
			}
			return imm(s.errf("%s needs a key and an optional integer delta", name)), false
		}
		if errRep, ok := s.checkKey(key); !ok {
			return imm(errRep), false
		}
		n, err := int64(1), error(nil)
		if len(num) > 0 {
			if n, err = strconv.ParseInt(string(num), 10, 64); err != nil {
				return imm(s.errf("%s %s is not an integer", name, arg)), false
			}
		}
		if st.multi != nil {
			return imm(s.errf("%s cannot be queued in MULTI", name)), false
		}
		ctr.Inc()
		if op == "decr" {
			n = -n
		}
		p := newPending(op, body)
		p.setKey(key, nil)
		p.n, p.at = n, s.now()
		return s.submit(st, s.st.ShardFor(p.key), p), false
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
	case "SCRUB", "SPLIT":
		name := "SCRUB"
		if up[1] == 'P' {
			name = "SPLIT"
		}
		arg := bytes.TrimSpace(rest)
		n, err := strconv.Atoi(string(arg))
		if len(arg) == 0 || err != nil {
			if name == "SPLIT" {
				return imm(s.errf("SPLIT needs a source shard index")), false
			}
			return imm(s.errf("SCRUB needs a shard index")), false
		}
		if name == "SPLIT" {
			s.cmdSplit.Inc()
			return imm(s.startSplit(n)), false
		}
		s.cmdScrub.Inc()
		if err := s.st.Scrub(n); err != nil {
			return imm(s.errf("scrub: %v", err)), false
		}
		return imm("OK"), false
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

// nextField returns b's first field and what follows it, splitting on
// white space as strings.Fields does, without allocating.
func nextField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
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
	s.splitWG.Add(1)
	go func() {
		defer s.splitWG.Done()
		// A terminal error (or a Stop-induced rollback) is recorded in the
		// driver's Status, which PLACEMENT exposes.
		_ = s.driver.Run()
	}()
	return "OK " + strconv.Itoa(dst)
}

// read serves GET/TTL. With none of the burst's operations queued it reads
// right here (ViewKey: one read transaction, wait-free even across a
// cutover). With all of them queued on the key's own shard it joins that
// queue: it executes at its queue position inside the batch transaction and
// replies with the batch, so the burst is not split. Anything else —
// operations queued on another shard, which a split cutover can cause —
// completes them first.
func (s *Server) read(st *connState, key []byte, op string, body bodyFunc) token {
	p := newPending(op, body)
	p.setKey(key, nil)
	p.read, p.at = true, s.now()
	if st.queued != -1 {
		if sh := s.st.ShardFor(key); st.queued == sh {
			return s.submit(st, sh, p)
		}
		st.complete()
	}
	err := s.st.ViewKey(p.key, func(tx ptm.Tx, db *kvstore.DB) (err error) {
		p.text, err = p.body(&p.cmd, tx, db)
		return err
	})
	text := p.text
	if err != nil {
		text = s.opReply(op, err)
	}
	p.release()
	return imm(text)
}

// queueMulti appends one SET/DEL to the open MULTI batch, enforcing the
// queue bound.
func (s *Server) queueMulti(st *connState, del bool, key, val []byte) (token, bool) {
	if st.multi.Len() >= s.maxBatchOps {
		st.multi = nil
		return imm(s.errf("batch too large")), false
	}
	if del {
		st.multi.Delete(key)
	} else {
		st.multi.Put(key, val)
	}
	return imm("QUEUED " + strconv.Itoa(st.multi.Len())), false
}

// execMulti commits a MULTI batch: single-shard batches ride the shard's
// group-commit queue (sharing a durability round with other connections);
// cross-shard batches run the coordinator's two-phase protocol inline,
// after completing the burst's queued operations so they order after this
// connection's earlier writes.
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
		ex.Delete(shard.SidecarKey("exp", key))
		if sh := s.st.ShardFor(key); only == -1 {
			only = sh
		} else if sh != only {
			single = false
		}
	})
	reply := "OK " + strconv.Itoa(n)
	if single {
		p := newPending("exec", func(_ *cmd, tx ptm.Tx, db *kvstore.DB) (string, error) {
			if err := db.Apply(tx, ex); err != nil {
				return "", err
			}
			return reply, nil
		})
		ex.Each(func(del bool, key, val []byte) { p.keys = append(p.keys, key) })
		// If a cutover moves any of the batch's keys before it commits, redo
		// goes through the store's write front door, which regroups by
		// current ownership (two-phase if the batch is now cross-shard).
		p.redo = func() string {
			if err := s.st.Write(ex); err != nil {
				return s.opReply("exec", err)
			}
			return reply
		}
		return s.submit(st, only, p)
	}
	st.complete()
	if err := s.st.Write(ex); err != nil {
		return imm(s.opReply("exec", err))
	}
	return imm(reply)
}

// expiredAt reports whether the expiry sidecar side says its key is dead at
// now. Absent or malformed sidecars mean "live".
func expiredAt(tx ptm.Tx, db *kvstore.DB, side []byte, now time.Time) bool {
	e, err := db.GetTx(tx, side)
	if err != nil {
		return false
	}
	ns, perr := strconv.ParseInt(string(e), 10, 64)
	if perr != nil {
		return false
	}
	return now.UnixNano() >= ns
}

// The command bodies below run inside a transaction of the key's shard —
// a group-commit batch, a solo re-run, or (reads) a direct read
// transaction — over the operands in c.

// setBody is SET: store the pair and clear any expiry.
func setBody(c *cmd, tx ptm.Tx, db *kvstore.DB) (string, error) {
	if err := db.PutTx(tx, c.key, c.val); err != nil {
		return "", err
	}
	return "OK", db.DeleteTx(tx, c.side)
}

// delBody is DEL: remove the pair and its expiry.
func delBody(c *cmd, tx ptm.Tx, db *kvstore.DB) (string, error) {
	if err := db.DeleteTx(tx, c.key); err != nil {
		return "", err
	}
	return "OK", db.DeleteTx(tx, c.side)
}

// incrBody is INCR/DECR: read-modify-write the decimal counter by c.n. An
// expired value counts as absent (counter restarts at 0+delta); non-integer
// values and overflow are protocol-level failures — replies, not batch
// aborts.
func incrBody(c *cmd, tx ptm.Tx, db *kvstore.DB) (string, error) {
	var cur int64
	v, err := db.GetTx(tx, c.key)
	switch {
	case errors.Is(err, kvstore.ErrNotFound):
	case err != nil:
		return "", err
	default:
		if !expiredAt(tx, db, c.side, c.at) {
			n, perr := strconv.ParseInt(string(v), 10, 64)
			if perr != nil {
				return "ERR value is not an integer", nil
			}
			cur = n
		}
	}
	n := cur + c.n
	if (c.n > 0 && n < cur) || (c.n < 0 && n > cur) {
		return "ERR increment overflows a 64-bit integer", nil
	}
	if err := db.PutTx(tx, c.key, strconv.AppendInt(nil, n, 10)); err != nil {
		return "", err
	}
	if err := db.DeleteTx(tx, c.side); err != nil {
		return "", err
	}
	return "INT " + strconv.FormatInt(n, 10), nil
}

// expireBody is EXPIRE: set (or, for c.n <= 0 seconds, immediately enforce)
// a key's expiry deadline. Missing and already-expired keys answer
// NOTFOUND; an expired key is swept while we are here.
func expireBody(c *cmd, tx ptm.Tx, db *kvstore.DB) (string, error) {
	_, err := db.GetTx(tx, c.key)
	if errors.Is(err, kvstore.ErrNotFound) {
		return "NOTFOUND", nil
	}
	if err != nil {
		return "", err
	}
	if gone := expiredAt(tx, db, c.side, c.at); gone || c.n <= 0 {
		if err := db.DeleteTx(tx, c.key); err != nil {
			return "", err
		}
		if err := db.DeleteTx(tx, c.side); err != nil {
			return "", err
		}
		if gone {
			return "NOTFOUND", nil
		}
		return "OK", nil
	}
	deadline := c.at.Add(time.Duration(c.n) * time.Second).UnixNano()
	return "OK", db.PutTx(tx, c.side, strconv.AppendInt(nil, deadline, 10))
}

// getBody is GET, honoring lazy expiry: an expired pair reads as NOTFOUND
// and is swept by the next write to the key, keeping reads wait-free.
func getBody(c *cmd, tx ptm.Tx, db *kvstore.DB) (string, error) {
	v, err := db.GetTx(tx, c.key)
	if errors.Is(err, kvstore.ErrNotFound) || (err == nil && expiredAt(tx, db, c.side, c.at)) {
		return "NOTFOUND", nil
	}
	if err != nil {
		return "", err
	}
	return "VALUE " + string(v), nil
}

// ttlBody is TTL: remaining whole seconds (rounded up), TTL -1 for keys
// without a deadline, NOTFOUND for absent or expired keys.
func ttlBody(c *cmd, tx ptm.Tx, db *kvstore.DB) (string, error) {
	_, err := db.GetTx(tx, c.key)
	if errors.Is(err, kvstore.ErrNotFound) {
		return "NOTFOUND", nil
	}
	if err != nil {
		return "", err
	}
	e, err := db.GetTx(tx, c.side)
	if errors.Is(err, kvstore.ErrNotFound) {
		return "TTL -1", nil
	}
	if err != nil {
		return "", err
	}
	ns, perr := strconv.ParseInt(string(e), 10, 64)
	rem := ns - c.at.UnixNano()
	switch {
	case perr != nil:
		return "TTL -1", nil
	case rem <= 0:
		return "NOTFOUND", nil
	}
	return "TTL " + strconv.FormatInt((rem+int64(time.Second)-1)/int64(time.Second), 10), nil
}

// oneKey parses and validates a single-key argument.
func (s *Server) oneKey(verb string, rest []byte) (key []byte, errReply string, ok bool) {
	key = bytes.TrimSpace(rest)
	if len(key) == 0 || bytes.ContainsAny(key, " \t") {
		return nil, s.errf("%s needs exactly one key", verb), false
	}
	if errRep, ok := s.checkKey(key); !ok {
		return nil, errRep, false
	}
	return key, "", true
}

// checkKey rejects keys the store cannot route faithfully: NUL is the
// sidecar marker (see shard.SidecarKey), so client keys must not contain it.
func (s *Server) checkKey(key []byte) (errReply string, ok bool) {
	if bytes.IndexByte(key, 0) >= 0 {
		return s.errf("key must not contain NUL"), false
	}
	return "", true
}

// splitKeyValue parses "key value..." where value is the rest of the line
// (may be empty, may contain spaces).
func splitKeyValue(rest []byte) (key, val []byte, ok bool) {
	key, val, _ = bytes.Cut(rest, []byte{' '})
	return key, val, len(key) > 0
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
