// Group commit: the scheduler that funnels writes from ALL connections into
// shared per-shard batches.
//
// A request/response server admits one write per connection round trip, so
// the engines' own combining sees thin batches and every client pays a full
// psync. The Committer closes that gap: each shard has one commit loop that
// drains every queued operation (from any connection, pipelined arbitrarily
// deep), executes them all inside ONE durable shard transaction, and only
// then releases their replies, so N writers share one durability round. The
// loop is the only batcher on the path: it enters the engine through
// shard.Update, the combiner's direct single-writer entry, which neither
// announces nor yields. A read behind its connection's own unresolved writes
// joins the queue too (Server.read) and replies with its batch.
//
// Scheduling: a batch closes when MaxBatch operations have been drained or
// when Linger has elapsed since its first operation arrived, whichever is
// first. Linger 0 (the default) never waits: a batch is whatever is queued
// when the loop gets to it, which still merges bursts under load.
//
// Completion is per batch: the loop sets every member's done flag, then
// wakes each connection's writer once. The server's Pendings are pooled.
//
// Failure isolation: operations report protocol-level failures ("ERR value
// is not an integer") as replies, not transaction errors, so they cannot
// abort batch-mates. A real transaction error (media fault, heap
// exhaustion) rolls the whole batch back; the committer then re-runs every
// operation solo so the poisoned operation fails alone — mirroring the flat
// combiner's own solo re-run rule one level up.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blackbox"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/ptm"
	"repro/internal/shard"
)

// DefaultGroupMaxBatch bounds one group-commit batch when
// Options.GroupMaxBatch is 0.
const DefaultGroupMaxBatch = 256

// OpFunc is one operation inside a group-commit transaction. It returns the
// wire reply for the operation; a non-nil error aborts the WHOLE batch
// transaction (the committer then isolates it by re-running every operation
// solo), so operation-level failures that should not disturb batch-mates
// must be encoded as "ERR ..." replies with a nil error. fn may run more
// than once (batch attempt, then solo) and must be deterministic
// read-modify-write over the transaction it is handed.
type OpFunc func(tx ptm.Tx, db *kvstore.DB) (string, error)

// cmd is one parsed command's operands. The byte slices point into the
// owning Pending's buffer, so a queued command keeps nothing of the
// connection's read buffer.
type cmd struct {
	key, side, val []byte    // side: key's expiry sidecar, built once per command
	n              int64     // INCR/DECR delta, EXPIRE seconds
	at             time.Time // the clock at parse time, for expiry decisions
}

// bodyFunc executes a command in a transaction on its key's shard, under
// OpFunc's contract.
type bodyFunc func(c *cmd, tx ptm.Tx, db *kvstore.DB) (string, error)

// Pending is one submitted operation's future. The reply becomes readable
// exactly when the psync of the durability round that committed the
// operation has completed — waiting on it IS the durable-before-reply
// guarantee.
type Pending struct {
	cmd
	body bodyFunc
	op   string // label for error rendering ("set", "incr", ...)
	read bool   // body writes nothing: a batch of reads alone needs no durability round
	conn uint64
	tag  any
	enq  time.Time
	seq  uint64
	text string
	buf  []byte // backs cmd's slices; kept when the Pending is recycled
	// keys route the operation: the commit loop re-runs it on the owning
	// shard if a cutover moved them while it queued (nil pins it to the
	// submitted shard). redo, when set, replaces that re-run (EXEC regroups
	// its batch); it runs outside the batch's route pin.
	keys [][]byte
	redo func() string
	// sp, when tracing, is the request's span; the commit loop stamps the
	// queue-drain, tx-start and psync-done boundaries on it before done.
	sp *spanInfo
	// done is set once the reply is final, then wake is signalled. A
	// connection's Pendings share its writer's channel and count into its
	// settled; a harness Submit has a channel of its own.
	done    atomic.Bool
	wake    chan struct{}
	settled *atomic.Uint64
}

// pendingPool recycles the server's own Pendings: a connection's writer
// returns one once it has taken the reply. Submit's are never recycled.
var pendingPool = sync.Pool{New: func() any { return new(Pending) }}

func newPending(op string, body bodyFunc) *Pending {
	p := pendingPool.Get().(*Pending)
	*p = Pending{op: op, body: body, buf: p.buf[:0], keys: p.keys[:0]}
	return p
}

// release returns p to the pool, dropping an outsized buffer.
func (p *Pending) release() {
	if cap(p.buf) > 64<<10 {
		p.buf = nil
	}
	pendingPool.Put(p)
}

// setKey copies key, its expiry sidecar and val into p's buffer and routes
// p by key and sidecar.
func (p *Pending) setKey(key, val []byte) {
	b := append(p.buf[:0], key...)
	b = shard.AppendSidecarKey(b, "exp", key)
	b = append(b, val...)
	k, v := len(key), len(b)-len(val)
	p.buf = b
	p.key, p.side, p.val = b[:k:k], b[k:v:v], b[v:]
	p.keys = append(p.keys[:0], p.key, p.side)
}

// Wait blocks until the operation's durability round completed and returns
// its reply line.
func (p *Pending) Wait() string {
	for !p.done.Load() {
		<-p.wake
	}
	return p.text
}

// Seq returns the per-shard batch sequence number that committed the
// operation. Valid only after Wait; crash harnesses use it to assert batch
// atomicity.
func (p *Pending) Seq() uint64 { return p.seq }

// Tag returns the opaque value given to Submit.
func (p *Pending) Tag() any { return p.tag }

// GroupOptions configure a Committer.
type GroupOptions struct {
	// MaxBatch bounds operations per batch transaction (0 =
	// DefaultGroupMaxBatch).
	MaxBatch int
	// Linger is how long a batch may wait for more operations after its
	// first arrives (0 = commit immediately with whatever is queued).
	Linger time.Duration
	// Registry receives net_group_* metrics; nil keeps a private registry.
	Registry *obs.Registry
	// OnBatch, when non-nil, is called with a batch's membership BEFORE its
	// transaction starts — crash harnesses record it so a crash inside the
	// round can be checked all-or-nothing against known membership.
	OnBatch func(shard int, seq uint64, ops []*Pending)
}

// Committer is the group-commit scheduler: one commit loop per shard of the
// store, each merging queued operations into shared durable transactions.
type Committer struct {
	st       *shard.Store
	maxBatch int
	linger   time.Duration
	onBatch  func(int, uint64, []*Pending)
	flight   bool // the store has flight recorders; stamp batch records

	// qmu guards queues against growth: a SPLIT that adds a shard calls
	// EnsureShards so writes routed to the new shard after cutover have a
	// commit loop to land on.
	qmu    sync.RWMutex
	queues []chan *Pending
	closed bool
	wg     sync.WaitGroup
	once   sync.Once

	batches    *obs.Counter
	batchOps   *obs.Counter
	soloRuns   *obs.Counter
	reroutes   *obs.Counter
	batchConns *obs.Histogram
	ackNs      *obs.Histogram
}

// NewCommitter starts one commit loop per shard of st. Close stops them.
func NewCommitter(st *shard.Store, opts GroupOptions) *Committer {
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	maxBatch := opts.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultGroupMaxBatch
	}
	c := &Committer{
		st:         st,
		maxBatch:   maxBatch,
		linger:     opts.Linger,
		onBatch:    opts.OnBatch,
		flight:     st.HasFlightRecorder(),
		queues:     make([]chan *Pending, st.NumShards()),
		batches:    reg.Counter("net_group_batch_total"),
		batchOps:   reg.Counter("net_group_batch_ops_total"),
		soloRuns:   reg.Counter("net_group_solo_total"),
		reroutes:   reg.Counter("net_group_reroute_total"),
		batchConns: reg.Histogram("net_group_batch_conns"),
		ackNs:      reg.Histogram("net_ack_latency_ns"),
	}
	for i := range c.queues {
		c.queues[i] = make(chan *Pending, 4*maxBatch)
		c.wg.Add(1)
		go c.loop(i, c.queues[i])
	}
	return c
}

// EnsureShards grows the committer to at least n shard queues, starting a
// commit loop per new shard. The server calls it when a SPLIT provisions a
// shard, so writes that route there after the cutover have a loop to land
// on; Submit also calls it defensively. No-op after Close.
func (c *Committer) EnsureShards(n int) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if c.closed {
		return
	}
	for len(c.queues) < n {
		q := make(chan *Pending, 4*c.maxBatch)
		c.queues = append(c.queues, q)
		c.wg.Add(1)
		go c.loop(len(c.queues)-1, q)
	}
}

// queue returns shard sh's channel, growing the queue set if a migration
// added shards since the committer started.
func (c *Committer) queue(sh int) chan *Pending {
	c.qmu.RLock()
	if sh < len(c.queues) {
		q := c.queues[sh]
		c.qmu.RUnlock()
		return q
	}
	c.qmu.RUnlock()
	c.EnsureShards(sh + 1)
	c.qmu.RLock()
	defer c.qmu.RUnlock()
	return c.queues[sh]
}

// Submit enqueues fn for key's shard sh and returns its future. conn
// identifies the submitting connection (for the batch-fan-in histogram), op
// labels error replies, tag rides along for harnesses. Operations of one
// shard commit in submission order (the queue is FIFO and the loop drains it
// in order), so a connection that submits its writes in request order gets
// per-key ordering for free. Submit must not be called after Close.
func (c *Committer) Submit(sh int, conn uint64, op string, tag any, fn OpFunc) *Pending {
	return c.enqueue(sh, &Pending{op: op, conn: conn, tag: tag, wake: make(chan struct{}, 1),
		body: func(_ *cmd, tx ptm.Tx, db *kvstore.DB) (string, error) { return fn(tx, db) }})
}

// enqueue stamps p and queues it on shard sh. The span MUST be wired before
// the channel send — the commit loop may pick the Pending up the instant it
// is queued — and the send publishes the reader-side stamps to the loop.
func (c *Committer) enqueue(sh int, p *Pending) *Pending {
	p.enq = time.Now()
	if sp := p.sp; sp != nil {
		sp.op, sp.parsed, sp.shard = p.op, p.enq, sh
	}
	c.queue(sh) <- p
	return p
}

// Close drains every queue — all submitted operations still commit and
// resolve — and stops the commit loops. Callers must stop Submitting first.
func (c *Committer) Close() {
	c.once.Do(func() {
		c.qmu.Lock()
		c.closed = true
		for _, q := range c.queues {
			close(q)
		}
		c.qmu.Unlock()
	})
	c.wg.Wait()
}

// shardLoop is one shard's commit loop and the buffers it reuses from batch
// to batch.
type shardLoop struct {
	*Committer
	sh    int
	seq   uint64
	keys  [][]byte
	wakes []chan struct{}
	conns map[uint64]struct{}
}

// loop is shard sh's commit loop.
func (c *Committer) loop(sh int, q chan *Pending) {
	defer c.wg.Done()
	l := &shardLoop{Committer: c, sh: sh}
	batch := make([]*Pending, 0, c.maxBatch)
	for first := range q {
		stampDrain(first)
		batch = append(batch[:0], first)
		batch = c.drainInto(q, batch)
		if c.linger > 0 && len(batch) < c.maxBatch {
			t := time.NewTimer(c.linger)
		linger:
			for len(batch) < c.maxBatch {
				select {
				case p, ok := <-q:
					if !ok {
						break linger
					}
					stampDrain(p)
					batch = append(batch, p)
					batch = c.drainInto(q, batch)
				case <-t.C:
					break linger
				}
			}
			t.Stop()
		}
		l.seq++
		l.commit(batch)
	}
}

// stampDrain marks the moment an operation left its shard queue — the
// queue_wait/batch_form boundary of its span. No-op (no clock read) when the
// operation is untraced.
func stampDrain(p *Pending) {
	if p.sp != nil {
		p.sp.drain = time.Now()
	}
}

// drainInto appends queued operations without waiting, up to the batch
// bound. Traced operations drained by one sweep share one drain timestamp.
func (c *Committer) drainInto(q chan *Pending, batch []*Pending) []*Pending {
	var now time.Time
	for len(batch) < c.maxBatch {
		select {
		case p, ok := <-q:
			if !ok {
				return batch
			}
			if p.sp != nil {
				if now.IsZero() {
					now = time.Now()
				}
				p.sp.drain = now
			}
			batch = append(batch, p)
		default:
			return batch
		}
	}
	return batch
}

// commit runs one batch as a single durable shard transaction and releases
// every member's reply after its psync. On a transaction-level error the
// batch rolls back untouched and each operation re-runs solo.
//
// Flight recording brackets the transaction: the BatchStart record is fenced
// onto the shard's blackbox ring BEFORE the batch runs, and the BatchCommit
// record lands after the psync, so a durable commit record implies the
// batch's data is durable too.
//
// commit also pins routing for the whole batch: a cutover can flip slot
// ownership between an operation's submit and its drain, but not while the
// write handle is held. Operations whose keys re-routed off sh while queued
// are split out and re-run on their new shard after the batch, in queue
// order, which preserves submission order per key — a key's queued
// operations, reads included, either all still route here or all moved with
// it. The batch settles as a whole, after the re-runs.
func (l *shardLoop) commit(ops []*Pending) {
	keys := l.keys[:0]
	for _, p := range ops {
		keys = append(keys, p.keys...)
	}
	l.keys = keys
	h := l.st.BeginWrite(keys...)
	local := ops
	var moved []*Pending
	if len(keys) > 0 {
		local = ops[:0]
		for _, p := range ops {
			if routedHere(h, p, l.sh) {
				local = append(local, p)
			} else {
				moved = append(moved, p)
			}
		}
	}
	if len(local) > 0 {
		l.commitLocal(h, local)
	}
	h.Done()
	// Re-runs go outside the handle: each takes its own route pin (and the
	// cross-shard path takes the migration lock), which would deadlock
	// against a cutover waiting on ours.
	for _, p := range moved {
		l.reroutes.Inc()
		if p.redo != nil {
			p.text = p.redo()
		} else {
			rh := l.st.BeginWrite(p.keys...)
			l.runSolo(rh.Route(p.keys[0]), p)
			rh.Done()
		}
		stampDurable(p, time.Time{})
	}
	l.settle(append(local, moved...))
}

// routedHere reports whether p's keys all still route to sh under the
// batch's route pin. Keyless operations are pinned to their submitted shard.
func routedHere(h *shard.WriteHandle, p *Pending, sh int) bool {
	for _, k := range p.keys {
		if h.Route(k) != sh {
			return false
		}
	}
	return true
}

// exec runs ops as one transaction on shard sh, storing each reply. A batch
// of reads alone runs as a read transaction: it pays no durability round.
func (l *shardLoop) exec(sh int, ops []*Pending) error {
	run := l.st.View
	for _, p := range ops {
		if !p.read {
			run = l.st.Update
			break
		}
	}
	return run(sh, func(tx ptm.Tx, db *kvstore.DB) error {
		for _, p := range ops {
			text, err := p.body(&p.cmd, tx, db)
			if err != nil {
				return err
			}
			p.text = text
		}
		return nil
	})
}

// runSolo runs one operation in its own transaction on shard sh, rendering
// a transaction error as its reply.
func (l *shardLoop) runSolo(sh int, p *Pending) {
	if err := l.exec(sh, []*Pending{p}); err != nil {
		p.text = renderOpError(p.op, err)
	}
}

// commitLocal runs the batch members still routed to sh as one durable
// shard transaction. Caller holds the batch's route pin.
func (l *shardLoop) commitLocal(h *shard.WriteHandle, ops []*Pending) {
	sh, seq := l.sh, l.seq
	if l.onBatch != nil {
		l.onBatch(sh, seq, ops)
	}
	conns := l.distinctConns(ops)
	if l.flight {
		l.st.RecordFlight(sh, blackbox.Record{
			Kind:     blackbox.KindBatchStart,
			BatchSeq: seq,
			Req:      firstReq(ops),
			Ops:      uint32(len(ops)),
			Conns:    uint32(conns),
		})
	}
	var txStart time.Time
	for _, p := range ops {
		if p.sp != nil {
			if txStart.IsZero() {
				txStart = time.Now()
			}
			p.sp.txStart = txStart
		}
	}
	if err := l.exec(sh, ops); err != nil {
		for _, p := range ops {
			l.soloRuns.Inc()
			l.runSolo(sh, p)
			stampDurable(p, time.Time{})
		}
		l.flightCommit(sh, seq, len(ops))
		return
	}
	var end time.Time
	for _, p := range ops {
		if p.sp != nil && end.IsZero() {
			end = time.Now()
		}
		stampDurable(p, end)
	}
	l.batches.Inc()
	l.batchOps.Add(uint64(len(ops)))
	l.batchConns.Observe(uint64(conns))
	// Commit record before reply release: once a client reads an ack, the
	// batch's BatchCommit record is already on the ring.
	l.flightCommit(sh, seq, len(ops))
}

// flightCommit records a batch's resolution (shared tx or solo re-runs) on
// the shard's blackbox ring.
func (c *Committer) flightCommit(sh int, seq uint64, ops int) {
	if c.flight {
		c.st.RecordFlight(sh, blackbox.Record{
			Kind:     blackbox.KindBatchCommit,
			BatchSeq: seq,
			Ops:      uint32(ops),
		})
	}
}

// stampDurable records the post-psync timestamp on a traced operation's
// span: at, or now when at is zero (a solo re-run's own round).
func stampDurable(p *Pending, at time.Time) {
	if p.sp == nil {
		return
	}
	if at.IsZero() {
		at = time.Now()
	}
	p.sp.durable = at
}

// firstReq returns the request id of the first traced operation in a batch
// (0 when tracing is off) — the flight record's anchor back into /trace.
func firstReq(ops []*Pending) uint64 {
	for _, p := range ops {
		if p.sp != nil {
			return p.sp.req
		}
	}
	return 0
}

// settle publishes a batch's replies: stamps and counts first, then every
// done flag, then one wake per distinct waiter. A connection's writer
// recycles its Pending the moment it sees the flag, so the channels to wake
// are collected before any flag is set and no Pending is read after its own.
func (l *shardLoop) settle(ops []*Pending) {
	now := time.Now()
	wakes := l.wakes[:0]
	for _, p := range ops {
		p.seq = l.seq
		if p.sp != nil {
			p.sp.batchSeq = l.seq
		}
		l.ackNs.Observe(uint64(now.Sub(p.enq)))
		// Adjacent duplicates only: a second send to a channel is harmless.
		if n := len(wakes); n == 0 || wakes[n-1] != p.wake {
			wakes = append(wakes, p.wake)
		}
		if p.settled != nil {
			p.settled.Add(1)
		}
	}
	for _, p := range ops {
		p.done.Store(true)
	}
	for _, w := range wakes {
		select {
		case w <- struct{}{}:
		default: // a wake is already pending; the waiter rechecks its flag
		}
	}
	clear(wakes)
	l.wakes = wakes[:0]
}

// GroupStats is the group-commit section of a STATS reply: cumulative batch
// counters plus the live per-shard queue depths. MeanBatchOps is the
// amortization the layer achieves (operations per durability round).
type GroupStats struct {
	Batches      uint64  `json:"batches"`
	BatchOps     uint64  `json:"batch_ops"`
	SoloRuns     uint64  `json:"solo_runs"`
	Reroutes     uint64  `json:"reroutes"`
	MeanBatchOps float64 `json:"mean_batch_ops"`
	QueueDepth   []int   `json:"queue_depth"`
}

// Stats snapshots the committer for STATS replies. Queue depths are
// instantaneous (the loops keep draining while we look).
func (c *Committer) Stats() GroupStats {
	c.qmu.RLock()
	queues := c.queues
	c.qmu.RUnlock()
	g := GroupStats{
		Batches:    c.batches.Load(),
		BatchOps:   c.batchOps.Load(),
		SoloRuns:   c.soloRuns.Load(),
		Reroutes:   c.reroutes.Load(),
		QueueDepth: make([]int, len(queues)),
	}
	if g.Batches > 0 {
		g.MeanBatchOps = float64(g.BatchOps) / float64(g.Batches)
	}
	for i, q := range queues {
		g.QueueDepth[i] = len(q)
	}
	return g
}

// distinctConns counts how many different connections a batch merged — the
// cross-connection fan-in the group-commit design exists for.
func (l *shardLoop) distinctConns(ops []*Pending) int {
	if l.conns == nil {
		l.conns = make(map[uint64]struct{})
	}
	clear(l.conns)
	for _, p := range ops {
		l.conns[p.conn] = struct{}{}
	}
	return len(l.conns)
}

// renderOpError turns a store error into its wire reply: a quarantined
// shard's *UnavailError passes through verbatim as the typed UNAVAIL reply,
// anything else becomes "ERR <op>: <err>".
func renderOpError(op string, err error) string {
	var ue *shard.UnavailError
	if errors.As(err, &ue) {
		return ue.Error()
	}
	return fmt.Sprintf("ERR %s: %v", op, err)
}
