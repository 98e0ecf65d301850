// Group commit: the scheduler that funnels writes from ALL connections into
// shared per-shard batches, run to completion by the goroutines that need
// the replies.
//
// A request/response server admits one write per connection round trip, so
// the engines' own combining sees thin batches and every client pays a full
// psync. The Committer closes that gap with the paper's flat-combining rule
// (§5.1) applied one level up: whoever holds a shard's leader slot executes
// the operations everyone else has queued. Each shard has one queue and one
// slot, and no goroutine of its own. A goroutine that needs a result — a
// connection's reader once it has parsed its burst, Pending.Wait, Close —
// queues its operations first. If it then finds the slot free (a try-lock;
// see complete for the one scheduler pass it may give first) it leads: it
// drains every queued operation, from any connection, into ONE durable
// shard transaction and releases their replies after that round's psync,
// so N writers share one durability round. If the slot is
// held it parks until a batch settles its operation, or until the slot
// frees with work queued and it is handed the lead. The leader enters the
// engine through shard.Update, the combiner's direct single-writer entry,
// which neither announces nor yields. A read behind its connection's own
// unresolved writes joins the queue too (Server.read) and replies with its
// batch.
//
// A batch is whatever is queued when the leader takes the slot, up to
// MaxBatch operations; no timer waits for more. Under load the queue fills
// while the slot is held, so batches grow exactly when there is work to
// share. The server's Pendings are pooled.
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
	"runtime"
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
	// keys route the operation: the leader re-runs it on the owning shard if
	// a cutover moved them while it queued (nil pins it to the submitted
	// shard). redo, when set, replaces that re-run (EXEC regroups its
	// batch); it runs outside the batch's route pin.
	keys [][]byte
	redo func() string
	// sp, when tracing, is the request's span; the leader stamps the
	// queue-drain, tx-start and psync-done boundaries on it before done.
	sp *spanInfo
	// q is the shard queue the operation was submitted to. done is set once
	// the reply is final. wake belongs to the goroutine that waits for the
	// operation: a connection's Pendings share its reader's channel, a
	// harness Submit has a channel of its own.
	q    *shardQueue
	done atomic.Bool
	wake chan struct{}
}

// pendingPool recycles the server's own Pendings: a connection's reader
// returns one once it has written the reply. Submit's are never recycled.
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

// Wait returns the operation's reply once its durability round completed,
// leading the shard's group commit itself whenever nobody else is.
func (p *Pending) Wait() string {
	if !p.done.Load() {
		p.q.complete(p)
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
	// Registry receives net_group_* metrics; nil keeps a private registry.
	Registry *obs.Registry
	// OnBatch, when non-nil, is called with a batch's membership BEFORE its
	// transaction starts — crash harnesses record it so a crash inside the
	// round can be checked all-or-nothing against known membership.
	OnBatch func(shard int, seq uint64, ops []*Pending)
}

// Committer is the group-commit scheduler: one queue and leader slot per
// shard of the store, each merging queued operations into shared durable
// transactions.
type Committer struct {
	st       *shard.Store
	maxBatch int
	onBatch  func(int, uint64, []*Pending)
	flight   bool // the store has flight recorders; stamp batch records

	// qmu guards queues against growth: a SPLIT adds a shard, and the first
	// operation routed there adds its queue.
	qmu    sync.RWMutex
	queues []*shardQueue

	batches    *obs.Counter
	batchOps   *obs.Counter
	soloRuns   *obs.Counter
	reroutes   *obs.Counter
	batchConns *obs.Histogram
	ackNs      *obs.Histogram
}

// shardQueue is one shard's queue and leader slot.
type shardQueue struct {
	*Committer
	sh int

	mu     sync.Mutex
	ops    []*Pending                 // queued, oldest first
	busy   bool                       // the leader slot is held
	parked map[chan struct{}]struct{} // goroutines waiting in complete

	// lastConn is the connection of the last batch's first operation and
	// otherConn the one before it that differed; yielding is set while an
	// arrival gives the scheduler its one pass (see complete).
	lastConn, otherConn uint64
	yielding            bool

	// The leader's state, used only by the slot's holder.
	seq   uint64
	spare []*Pending
	keys  [][]byte
	conns map[uint64]struct{}
}

// NewCommitter returns a committer over st's shards. It starts nothing:
// every batch runs on a goroutine that waits for one of its operations.
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
		onBatch:    opts.OnBatch,
		flight:     st.HasFlightRecorder(),
		batches:    reg.Counter("net_group_batch_total"),
		batchOps:   reg.Counter("net_group_batch_ops_total"),
		soloRuns:   reg.Counter("net_group_solo_total"),
		reroutes:   reg.Counter("net_group_reroute_total"),
		batchConns: reg.Histogram("net_group_batch_conns"),
		ackNs:      reg.Histogram("net_ack_latency_ns"),
	}
	c.queue(st.NumShards() - 1)
	return c
}

// queue returns shard sh's queue, adding queues up to sh if a migration
// added shards since the committer started.
func (c *Committer) queue(sh int) *shardQueue {
	c.qmu.RLock()
	if sh < len(c.queues) {
		q := c.queues[sh]
		c.qmu.RUnlock()
		return q
	}
	c.qmu.RUnlock()
	c.qmu.Lock()
	defer c.qmu.Unlock()
	for len(c.queues) <= sh {
		c.queues = append(c.queues, &shardQueue{Committer: c, sh: len(c.queues), parked: map[chan struct{}]struct{}{}})
	}
	return c.queues[sh]
}

// Submit enqueues fn for key's shard sh and returns its future; the
// operation commits no later than the first Wait on it or Close. conn
// identifies the submitting connection (for the batch-fan-in histogram), op
// labels error replies, tag rides along for harnesses. Operations of one
// shard commit in submission order (the queue is FIFO and every batch is a
// prefix of it), so a connection that submits its writes in request order
// gets per-key ordering for free.
func (c *Committer) Submit(sh int, conn uint64, op string, tag any, fn OpFunc) *Pending {
	return c.enqueue(sh, &Pending{op: op, conn: conn, tag: tag, wake: make(chan struct{}, 1),
		body: func(_ *cmd, tx ptm.Tx, db *kvstore.DB) (string, error) { return fn(tx, db) }})
}

// enqueue stamps p and queues it on shard sh. The span is wired before the
// queue's lock publishes p to a leader.
func (c *Committer) enqueue(sh int, p *Pending) *Pending {
	q := c.queue(sh)
	p.q, p.enq = q, time.Now()
	if sp := p.sp; sp != nil {
		sp.op, sp.parsed, sp.shard = p.op, p.enq, sh
	}
	q.mu.Lock()
	q.ops = append(q.ops, p)
	q.mu.Unlock()
	return p
}

// Close commits every operation still queued — submitted but never waited
// on — and returns once no batch is running.
func (c *Committer) Close() {
	c.qmu.RLock()
	queues := c.queues
	c.qmu.RUnlock()
	for _, q := range queues {
		q.complete(nil)
	}
}

// complete runs the shard's group commit until p is done, or, with p nil,
// until the queue is empty and no batch runs. The caller leads whenever the
// slot is free and it is not finished; otherwise it parks until a batch
// settles p or a leader leaves the slot free. Leaving, it wakes one parked
// goroutine if nobody leads, so queued work never waits on a goroutine that
// is not waiting for it.
//
// One exception to leading at once: when two connections take turns on the
// shard — another connection's batch came last, the arrival's own before
// it — the arrival that finds the slot free first gives the
// scheduler one pass (runtime.Gosched, no timer), so an operation already
// in flight from the other connection can queue and share the round. Two
// depth-1 clients otherwise alternate one-operation rounds, each paying
// the full per-round write-back. Only one arrival per shard yields at a
// time; the others lead at once and take its operation along. Many
// connections rarely take turns this way, so under fan-in nobody yields.
func (q *shardQueue) complete(p *Pending) {
	var wake chan struct{}
	if p != nil {
		wake = p.wake
	} else {
		wake = make(chan struct{}, 1)
	}
	waited := false // yielded or parked once already
	q.mu.Lock()
	for p == nil && (q.busy || len(q.ops) > 0) || p != nil && !p.done.Load() {
		if !q.busy {
			if !waited && p != nil && !q.yielding && p.conn == q.otherConn && p.conn != q.lastConn {
				waited, q.yielding = true, true
				q.mu.Unlock()
				runtime.Gosched()
				q.mu.Lock()
				q.yielding = false
				continue
			}
			q.lead()
			continue
		}
		waited = true
		q.parked[wake] = struct{}{}
		q.mu.Unlock()
		<-wake
		q.mu.Lock()
	}
	if !q.busy {
		for w := range q.parked {
			q.unpark(w)
			break
		}
	}
	q.mu.Unlock()
}

// unpark wakes a parked goroutine. Caller holds q.mu.
func (q *shardQueue) unpark(w chan struct{}) {
	delete(q.parked, w)
	select {
	case w <- struct{}{}:
	default: // a wake is already pending; the waiter rechecks either way
	}
}

// lead takes the slot and commits one batch: up to MaxBatch queued
// operations, oldest first. Caller holds q.mu; lead releases it for the
// commit and returns with it held and the slot free again.
func (q *shardQueue) lead() {
	batch := q.spare[:0]
	if len(q.ops) <= q.maxBatch {
		batch, q.ops = q.ops, batch
	} else {
		batch = append(batch, q.ops[:q.maxBatch]...)
		n := copy(q.ops, q.ops[q.maxBatch:])
		clear(q.ops[n:])
		q.ops = q.ops[:n]
	}
	q.busy = true
	q.mu.Unlock()
	var now time.Time
	for _, p := range batch {
		if p.sp != nil {
			if now.IsZero() {
				now = time.Now()
			}
			p.sp.drain = now
		}
	}
	q.seq++
	batch = q.commit(batch)
	q.mu.Lock()
	if c := batch[0].conn; c != q.lastConn {
		q.otherConn, q.lastConn = q.lastConn, c
	}
	q.settle(batch)
	q.busy = false
	clear(batch)
	q.spare = batch[:0]
}

// commit runs one batch as a single durable shard transaction and returns
// its members, reordered. On a transaction-level error the batch rolls back
// untouched and each operation re-runs solo.
//
// Flight recording brackets the transaction: the BatchStart record is fenced
// onto the shard's blackbox ring BEFORE the batch runs, and the BatchCommit
// record lands after the psync, so a durable commit record implies the
// batch's data is durable too.
//
// commit also pins routing for the whole batch: a cutover can flip slot
// ownership between an operation's submit and its drain, but not while the
// write handle is held. Operations whose keys re-routed off the shard while
// queued are split out and re-run on their new shard after the batch, in
// queue order, which preserves submission order per key — a key's queued
// operations, reads included, either all still route here or all moved with
// it. The batch settles as a whole, after the re-runs.
func (q *shardQueue) commit(ops []*Pending) []*Pending {
	keys := q.keys[:0]
	for _, p := range ops {
		keys = append(keys, p.keys...)
	}
	q.keys = keys
	h := q.st.BeginWrite(keys...)
	local := ops
	var moved []*Pending
	if len(keys) > 0 {
		local = ops[:0]
		for _, p := range ops {
			if routedHere(h, p, q.sh) {
				local = append(local, p)
			} else {
				moved = append(moved, p)
			}
		}
	}
	if len(local) > 0 {
		q.commitLocal(local)
	}
	h.Done()
	// Re-runs go outside the handle: each takes its own route pin (and the
	// cross-shard path takes the migration lock), which would deadlock
	// against a cutover waiting on ours.
	for _, p := range moved {
		q.reroutes.Inc()
		if p.redo != nil {
			p.text = p.redo()
		} else {
			rh := q.st.BeginWrite(p.keys...)
			q.runSolo(rh.Route(p.keys[0]), p)
			rh.Done()
		}
		stampDurable(p, time.Time{})
	}
	return append(local, moved...)
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
func (c *Committer) exec(sh int, ops []*Pending) error {
	run := c.st.View
	for _, p := range ops {
		if !p.read {
			run = c.st.Update
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
func (c *Committer) runSolo(sh int, p *Pending) {
	if err := c.exec(sh, []*Pending{p}); err != nil {
		p.text = renderOpError(p.op, err)
	}
}

// commitLocal runs the batch members still routed to the shard as one
// durable shard transaction. Caller holds the batch's route pin.
func (q *shardQueue) commitLocal(ops []*Pending) {
	sh, seq := q.sh, q.seq
	if q.onBatch != nil {
		q.onBatch(sh, seq, ops)
	}
	conns := q.distinctConns(ops)
	if q.flight {
		q.st.RecordFlight(sh, blackbox.Record{
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
	if err := q.exec(sh, ops); err != nil {
		for _, p := range ops {
			q.soloRuns.Inc()
			q.runSolo(sh, p)
			stampDurable(p, time.Time{})
		}
		q.flightCommit(sh, seq, len(ops))
		return
	}
	var end time.Time
	for _, p := range ops {
		if p.sp != nil && end.IsZero() {
			end = time.Now()
		}
		stampDurable(p, end)
	}
	q.batches.Inc()
	q.batchOps.Add(uint64(len(ops)))
	q.batchConns.Observe(uint64(conns))
	// Commit record before reply release: once a client reads an ack, the
	// batch's BatchCommit record is already on the ring.
	q.flightCommit(sh, seq, len(ops))
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

// settle publishes a batch's replies and wakes each parked owner once.
// Caller holds q.mu. An owner that is not parked may recycle its Pending the
// moment it sees the done flag, so nothing reads a Pending after setting it.
func (q *shardQueue) settle(ops []*Pending) {
	now := time.Now()
	for _, p := range ops {
		p.seq = q.seq
		if p.sp != nil {
			p.sp.batchSeq = q.seq
		}
		q.ackNs.Observe(uint64(now.Sub(p.enq)))
		if _, ok := q.parked[p.wake]; ok {
			q.unpark(p.wake)
		}
		p.done.Store(true)
	}
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

// Stats snapshots the committer for STATS replies, one queue depth per
// shard. Depths are instantaneous (leaders keep draining while we look).
func (c *Committer) Stats() GroupStats {
	c.queue(c.st.NumShards() - 1)
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
		q.mu.Lock()
		g.QueueDepth[i] = len(q.ops)
		q.mu.Unlock()
	}
	return g
}

// distinctConns counts how many different connections a batch merged — the
// cross-connection fan-in the group-commit design exists for.
func (q *shardQueue) distinctConns(ops []*Pending) int {
	if q.conns == nil {
		q.conns = make(map[uint64]struct{})
	}
	clear(q.conns)
	for _, p := range ops {
		q.conns[p.conn] = struct{}{}
	}
	return len(q.conns)
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
