// Group commit: the scheduler that funnels writes from ALL connections into
// shared per-shard batches, run to completion by the goroutines that need
// the replies.
//
// A request/response server admits one write per connection round trip, so
// an engine sees thin batches and every client pays a full psync. The
// Committer closes that gap one level up: each shard has a
// flatcombine.Queue of the server's Pendings — the lead-or-park queue the
// engine combines its writers with — and no goroutine of its own. A
// goroutine that needs a result (a connection's reader once it has parsed
// its burst, Pending.Wait, Close) queues its operations, then leads if the
// slot is free: it takes every queued operation, from any connection, pins
// their routes, and hands the ones still routed to the shard to its engine
// as one request (shard.UpdateEach), so N writers share one durability
// round, and publishes their replies after that round's replication.
// Otherwise it parks until a batch settles its operation or it is handed
// the slot. A read behind its connection's own unresolved writes joins the
// queue too (Server.read) and replies with its batch.
//
// The two queues are separate because the route pin must be taken before
// the engine's slot: an engine leader can be an embedded Store.Put that
// already holds its own route pin, which would nest behind a waiting
// cutover if the engine round took the batch's pin.
//
// A batch is whatever is queued when the leader takes the slot, up to
// MaxBatch operations; no timer waits for more, so batches grow exactly when
// there is work to share. The server's Pendings are pooled.
//
// Failure isolation: operations report protocol-level failures ("ERR value
// is not an integer") as replies, not transaction errors, so they cannot
// abort batch-mates. A real transaction error (media fault, heap
// exhaustion) fails the round; the engine re-runs each operation alone, so
// the poisoned operation fails alone and replies with its error. A media
// fault is retried, and quarantines the shard, as for a single-key operation
// (shard.Store.UpdateEach). A batch of reads alone runs each read alone.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/blackbox"
	"repro/internal/flatcombine"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/ptm"
	"repro/internal/shard"
)

// DefaultGroupMaxBatch bounds one group-commit batch when
// GroupOptions.MaxBatch is 0; the Server always uses it.
const DefaultGroupMaxBatch = 256

// OpFunc is one operation inside a group-commit transaction. It returns the
// wire reply for the operation; a non-nil error fails the WHOLE round (the
// engine then isolates it by re-running every operation alone), so
// operation-level failures that should not disturb batch-mates must be
// encoded as "ERR ..." replies with a nil error. fn may run more than once
// (batch attempt, then alone) and must be deterministic read-modify-write
// over the transaction it is handed.
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
// exactly when the replication of the durability round that committed the
// operation has completed — waiting on it IS the durable-before-reply
// guarantee. Its Waiter's Owner is the submitting connection, and Wake the
// channel its waiter parks on: a connection's Pendings share its reader's,
// a harness Submit has a channel of its own.
type Pending struct {
	flatcombine.Waiter
	cmd
	body bodyFunc
	op   string // label for error rendering ("set", "incr", ...)
	read bool   // body writes nothing: a batch of reads alone needs no durability round
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
	q  *shardQueue // the shard queue the operation was submitted to
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
	p.q.Wait(p)
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

// shardQueue is one shard's queue and leader slot, and the state its slot
// holder keeps.
type shardQueue struct {
	*Committer
	*flatcombine.Queue[*Pending]
	sh    int
	seq   uint64
	keys  [][]byte
	errs  []error
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
		q := &shardQueue{Committer: c, sh: len(c.queues)}
		q.Queue = flatcombine.NewQueue(c.maxBatch, q.run)
		c.queues = append(c.queues, q)
	}
	return c.queues[sh]
}

// Submit enqueues fn for key's shard sh and returns its future; the
// operation commits no later than the first Wait on it or Close. conn
// identifies the submitting connection (for the batch-fan-in histogram and,
// as the queue's advisory owner id, its turn-taking yield; 0 is none), op
// labels error replies, tag rides along for harnesses. Operations of one
// shard commit in submission order (the queue is FIFO and every batch is a
// prefix of it), so a connection that submits its writes in request order
// gets per-key ordering for free.
func (c *Committer) Submit(sh int, conn uint64, op string, tag any, fn OpFunc) *Pending {
	p := &Pending{op: op, tag: tag, body: func(_ *cmd, tx ptm.Tx, db *kvstore.DB) (string, error) { return fn(tx, db) }}
	p.Owner, p.Wake = conn, make(chan struct{}, 1)
	return c.enqueue(sh, p)
}

// enqueue stamps p and queues it on shard sh. The span is wired before the
// queue's lock publishes p to a leader.
func (c *Committer) enqueue(sh int, p *Pending) *Pending {
	q := c.queue(sh)
	p.q, p.enq = q, time.Now()
	if sp := p.sp; sp != nil {
		sp.op, sp.parsed, sp.shard = p.op, p.enq, sh
	}
	q.Enqueue(p)
	return p
}

// Close commits every operation still queued — submitted but never waited
// on — and returns once no batch is running.
func (c *Committer) Close() {
	c.qmu.RLock()
	queues := c.queues
	c.qmu.RUnlock()
	for _, q := range queues {
		q.Flush()
	}
}

// run is the queue's batch body: it commits the batch and settles it.
func (q *shardQueue) run(batch []*Pending) []*Pending {
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
	now = time.Now()
	for _, p := range batch {
		p.seq = q.seq
		if p.sp != nil {
			p.sp.batchSeq = q.seq
		}
		q.ackNs.Observe(uint64(now.Sub(p.enq)))
	}
	q.Release(batch...)
	return batch
}

// commit runs one batch as a single durable shard transaction and returns
// its members, reordered.
//
// Flight recording brackets the transaction: the BatchStart record is fenced
// onto the shard's blackbox ring BEFORE the batch runs, and the BatchCommit
// record lands after the round's replication, so a durable commit record
// implies the batch's data is durable too.
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
			q.exec(rh.Route(p.keys[0]), []*Pending{p})
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

// exec runs ops on shard sh, storing each reply; an operation that fails
// replies with its error, and exec reports whether one did. Writes go to the
// shard's engine as one request: one durability round, or each alone after
// a failure. A batch of reads alone pays no durability round: each read
// runs in a read transaction of its own, so a failed read fails alone.
func (q *shardQueue) exec(sh int, ops []*Pending) (failed bool) {
	errs := append(q.errs[:0], make([]error, len(ops))...)
	q.errs = errs
	var err error
	if slices.ContainsFunc(ops, func(p *Pending) bool { return !p.read }) {
		err = q.st.UpdateEach(sh, func(tx ptm.Tx, db *kvstore.DB, j int) (err error) {
			p := ops[j]
			p.text, err = p.body(&p.cmd, tx, db)
			return err
		}, errs)
	} else {
		for j, p := range ops {
			errs[j] = q.st.View(sh, func(tx ptm.Tx, db *kvstore.DB) (err error) {
				p.text, err = p.body(&p.cmd, tx, db)
				return err
			})
		}
	}
	for j, p := range ops {
		if e := cmp.Or(err, errs[j]); e != nil {
			p.text, failed = renderOpError(p.op, e), true
		}
	}
	clear(errs)
	return failed
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
	if q.exec(sh, ops) {
		q.soloRuns.Add(uint64(len(ops)))
	} else {
		q.batches.Inc()
		q.batchOps.Add(uint64(len(ops)))
		q.batchConns.Observe(uint64(conns))
	}
	var end time.Time
	for _, p := range ops {
		if p.sp != nil && end.IsZero() {
			end = time.Now()
		}
		stampDurable(p, end)
	}
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
		g.QueueDepth[i] = q.Len()
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
		q.conns[p.Owner] = struct{}{}
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
