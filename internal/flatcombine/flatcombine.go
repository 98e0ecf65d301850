// Package flatcombine implements the one combining structure of the process
// (§5.2 of the paper): writers publish their operations, and one combiner
// runs them all in one durable transaction, so the fences of a round are
// paid once per batch rather than once per operation.
//
// Queue is the structure, written once: a FIFO of requests under one mutex
// and a leader slot, with no goroutine of its own. A caller enqueues its
// requests, then waits: if the slot is free it leads — it takes the queue
// and runs the batch body with the slot held — and if the slot is held it
// waits until a batch settles its request or the slot frees. How it waits
// is a property of its request: one without a wake channel (an engine's)
// watches the slot, as §5.2's writers spin on their announcements; one that
// asks to watch (a pipelined burst's) watches while no other waiter of the
// queue does; every other waiter parks until a batch settles its request or
// a departing leader hands it the slot. Two places decide the policy: Wait,
// whether a caller leads or waits and how, and the batch body, when its
// requests are released.
//
// Combiner is the engine's instance: its body opens one transaction, runs
// every request of the batch, rescans the queue and runs what arrived
// meanwhile until a rescan comes up empty, and only then pays the single
// durability round. Every writer of an engine enters through Execute:
// embedded updates, and the server's group leader, whose batch is one
// request of many operations. The server's per-shard group queue is a
// second Queue with a body of its own.
//
// A round ends in two hooks. Commit makes the batch durable and lets readers
// at it; the combiner releases every request of the batch except the Late
// ones, then runs Replicate, which readies the twin copy for the next round,
// then releases the Late ones. The slot stays held through Replicate, so the
// next Begin still finds the copies equal, but a folded-in writer does not
// wait for work that only serves the next transaction. A wire reply must
// follow Replicate, so the server's requests are Late.
//
// Error and panic semantics: operations in a batch share one transaction,
// so a failing operation cannot be rolled back alone. When any operation of
// a batch fails (returns an error or panics), the combiner rolls the whole
// transaction back and re-executes each operation of the batch in its own
// transaction, isolating the failure while preserving exactly-once
// semantics for the operations that succeed. Operations must therefore be
// safe to re-execute after a full rollback, which holds for closures whose
// only side effects go through the transaction or overwrite captured
// variables — the usage pattern of the paper's API (Algorithm 2).
package flatcombine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Waiter is the part of a queued request the Queue manages. Embed it in the
// request type.
type Waiter struct {
	// Wake is the channel the owner parks on, with capacity 1. Owners may
	// share one: a connection's requests share its reader's. A request
	// without one is watched instead (see Wait).
	Wake chan struct{}
	// Owner identifies the submitter for the turn-taking yield (see Wait);
	// 0 is anonymous. Owner ids are advisory: submitters that share one
	// only yield to each other less often.
	Owner uint64
	// Watch asks that the owner watch a held slot rather than park on Wake
	// while no other waiter of the queue watches (see Wait). Only the owner
	// reads it, in Wait.
	Watch bool
	done  atomic.Bool // set once a batch settled the request
}

func (w *Waiter) waiter() *Waiter { return w }

// queued is satisfied by a pointer to a type that embeds Waiter.
type queued interface{ waiter() *Waiter }

// Queue is the lead-or-park queue: requests in FIFO order and a leader slot.
type Queue[R queued] struct {
	// run executes a batch with the slot held. It must release every request
	// it took, through Release, before it returns, and returns the batch
	// (grown by More) so its buffer is reused.
	run      func(batch []R) []R
	maxBatch int // requests per batch; 0 is unbounded

	mu       sync.Mutex
	reqs     []R                        // queued, oldest first
	busy     atomic.Bool                // the slot is held; written under mu
	parked   map[chan struct{}]struct{} // goroutines waiting in wait
	watching bool                       // a Watch request's owner watches the slot

	// lastOwner is the owner of the last batch's first request, otherOwner
	// the one before it that differed; yielding is set while an arrival
	// gives the scheduler its one pass (see Wait).
	lastOwner, otherOwner uint64
	yielding              bool

	spare []R // the batch buffer, the slot holder's
}

// NewQueue returns a queue whose leaders run batches of at most maxBatch
// requests (0: unbounded) through run.
func NewQueue[R queued](maxBatch int, run func(batch []R) []R) *Queue[R] {
	return &Queue[R]{run: run, maxBatch: maxBatch, parked: map[chan struct{}]struct{}{}}
}

// Enqueue queues r behind every request queued before it.
func (q *Queue[R]) Enqueue(r R) {
	r.waiter().done.Store(false)
	q.mu.Lock()
	q.reqs = append(q.reqs, r)
	q.mu.Unlock()
}

// Wait returns once a batch has settled r, leading batches itself whenever
// the slot is free and r is not settled; otherwise it waits for the slot.
// A request without a Wake (an engine's, whose rounds take microseconds)
// stays runnable and watches the slot, since a wake-up from a park costs
// about as much as the round it waited for. A request with Watch set does
// the same while no other waiter watches: it leads the moment the slot
// frees, with whatever queued meanwhile. Every other request parks on its
// Wake. One watcher per queue is enough to take the next batch; more would
// only keep goroutines runnable without work. The server leaves Watch unset
// on a connection's lone operation: its park is what lets two owners that
// take turns share a round (below), since the leader takes whatever queued
// while it parked.
// Leaving, it wakes one parked goroutine if nobody leads, so queued work
// never waits on a goroutine that is not waiting for it.
//
// One exception to leading at once: when two owners take turns on the
// queue — another owner's batch came last, r's owner's before it — the
// arrival that finds the slot free first gives the scheduler one pass
// (runtime.Gosched, no timer), so a request already in flight from the other
// owner can queue and share the round. Two depth-1 clients otherwise
// alternate one-request rounds, each paying the full per-round write-back.
// Only one such arrival yields at a time; the others lead at once and take
// its request along, so under fan-in nobody yields. An anonymous request
// (the engine's writers carry no identity) may always be taking turns: its
// arrival always gives the one pass, which is what lets concurrent writers
// on few processors meet in one round.
func (q *Queue[R]) Wait(r R) {
	if w := r.waiter(); !w.done.Load() {
		q.wait(w, w.Wake)
	}
}

// Flush returns once the queue is empty and no batch runs, leading the
// batches itself.
func (q *Queue[R]) Flush() { q.wait(nil, make(chan struct{}, 1)) }

// wait is Wait for w, or Flush with w nil.
func (q *Queue[R]) wait(w *Waiter, wake chan struct{}) {
	waited := false // yielded or parked once already
	q.mu.Lock()
	for w == nil && (q.busy.Load() || len(q.reqs) > 0) || w != nil && !w.done.Load() {
		if !q.busy.Load() {
			if w != nil && !waited && (w.Owner == 0 || !q.yielding && w.Owner == q.otherOwner && w.Owner != q.lastOwner) {
				waited = true
				turn := w.Owner != 0 // turn-taking arrivals yield one at a time
				q.yielding = q.yielding || turn
				q.mu.Unlock()
				runtime.Gosched()
				q.mu.Lock()
				q.yielding = q.yielding && !turn
				continue
			}
			q.lead()
			continue
		}
		waited = true
		if w != nil && (wake == nil || w.Watch && !q.watching) {
			q.watch(w, wake != nil)
			continue
		}
		q.park(wake)
	}
	q.leave()
	q.mu.Unlock()
}

// watch waits, runnable, until w is settled or the slot frees. claim takes
// the queue's one watcher place for a request that could park instead.
// Caller holds q.mu.
func (q *Queue[R]) watch(w *Waiter, claim bool) {
	q.watching = q.watching || claim
	q.mu.Unlock()
	for !w.done.Load() && q.busy.Load() {
		runtime.Gosched()
	}
	q.mu.Lock()
	q.watching = q.watching && !claim
}

// park waits on wake for the slot holder. Caller holds q.mu.
func (q *Queue[R]) park(wake chan struct{}) {
	q.parked[wake] = struct{}{}
	q.mu.Unlock()
	<-wake
	q.mu.Lock()
}

// leave hands the slot to one parked goroutine if nobody holds it. Caller
// holds q.mu.
func (q *Queue[R]) leave() {
	if q.busy.Load() {
		return
	}
	for w := range q.parked {
		q.unpark(w)
		break
	}
}

// unpark wakes a parked goroutine. Caller holds q.mu.
func (q *Queue[R]) unpark(w chan struct{}) {
	delete(q.parked, w)
	select {
	case w <- struct{}{}:
	default: // a wake is already pending; the waiter rechecks either way
	}
}

// lead takes the slot and runs one batch: the queued requests, oldest
// first, up to the bound. Caller holds q.mu; lead releases it for the batch
// and returns with it held and the slot free again.
func (q *Queue[R]) lead() {
	batch := q.take(q.spare[:0])
	if o := batch[0].waiter().Owner; o != q.lastOwner {
		q.otherOwner, q.lastOwner = q.lastOwner, o
	}
	q.busy.Store(true)
	q.mu.Unlock()
	batch = q.run(batch)
	q.mu.Lock()
	q.busy.Store(false)
	clear(batch)
	q.spare = batch[:0]
}

// take moves queued requests onto batch, oldest first, while the batch is
// below the bound. Caller holds q.mu.
func (q *Queue[R]) take(batch []R) []R {
	n := len(q.reqs)
	if q.maxBatch > 0 {
		n = min(n, max(q.maxBatch-len(batch), 0))
	}
	batch = append(batch, q.reqs[:n]...)
	rest := copy(q.reqs, q.reqs[n:])
	clear(q.reqs[rest:])
	q.reqs = q.reqs[:rest]
	return batch
}

// more moves what was queued since the batch was taken onto it, within the
// bound. Only the slot holder calls it.
func (q *Queue[R]) more(batch []R) []R {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.take(batch)
}

// Release settles rs and wakes their parked owners. An owner that is not
// parked may recycle its request the moment it sees Done, so nothing reads
// a request after releasing it.
func (q *Queue[R]) Release(rs ...R) {
	if len(rs) == 0 {
		return
	}
	q.mu.Lock()
	for _, r := range rs {
		w := r.waiter()
		if _, ok := q.parked[w.Wake]; ok {
			q.unpark(w.Wake)
		}
		w.done.Store(true)
	}
	q.mu.Unlock()
}

// exclusive runs f holding the slot, between batches.
func (q *Queue[R]) exclusive(f func()) {
	q.mu.Lock()
	for wake := chan struct{}(nil); q.busy.Load(); q.park(wake) {
		if wake == nil {
			wake = make(chan struct{}, 1)
		}
	}
	q.busy.Store(true)
	q.mu.Unlock()
	defer func() {
		q.mu.Lock()
		q.busy.Store(false)
		q.leave()
		q.mu.Unlock()
	}()
	f()
}

// Waiting reports how many goroutines are parked on the queue and whether
// one watches its held slot.
func (q *Queue[R]) Waiting() (parked int, watching bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.parked), q.watching
}

// Len returns the number of queued requests no batch has taken yet.
func (q *Queue[R]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.reqs)
}

// Hooks connect the combiner to a PTM engine. All four are invoked with
// the slot held, in the strict sequence Begin, then user operations, then
// either Commit followed by Replicate, or Rollback.
type Hooks[T any] struct {
	// Begin opens an update transaction and returns the handle passed to
	// the operations. For C-RW-WP engines it also drains readers; for
	// left-right it performs the first version toggle.
	Begin func() T
	// Commit makes the transaction durable (the psync of Algorithm 1) and
	// publishes its effects to readers. The requests other than Late ones
	// are released next.
	Commit func(tx T)
	// Replicate finishes the round after those requests were released:
	// whatever the next transaction needs (the main→back copy and its
	// fence), none of which any caller's result depends on.
	Replicate func(tx T)
	// Rollback reverts every effect of the transaction using the twin copy
	// (or the engine's log) and releases whatever Begin acquired.
	Rollback func(tx T)
}

// Request is one submission to a Combiner: len(Errs) operations, Op(tx, 0)
// onward, that run in the same durability round unless one of the round's
// operations fails. Errs[i] receives operation i's result.
type Request[T any] struct {
	Waiter
	Op   func(tx T, i int) error
	Errs []error
	// Late requests are released after Replicate, not at the durable point.
	Late bool
	// Seq is the durability round that committed the request's last
	// operation that succeeded, 0 if none did. Rounds are numbered in
	// commit order from 1; operations of one round became durable
	// atomically.
	Seq  uint64
	pval any // value recovered from a panicking op, re-raised at the owner
}

// Combiner is the engine's instance of the queue: its batch body is one
// durable transaction.
type Combiner[T any] struct {
	q        *Queue[*Request[T]]
	hooks    Hooks[T]
	combined atomic.Uint64 // requests executed in a batch another caller led
	seq      atomic.Uint64 // committed durability rounds, monotone
	batchOps atomic.Uint64 // requests retired across committed rounds
}

// Stats is a snapshot of a combiner's batching counters.
type Stats struct {
	// Batches counts committed durability rounds, each one set of fences.
	Batches uint64
	// BatchOps counts requests retired across them: BatchOps/Batches is
	// the mean batch size.
	BatchOps uint64
	// Combined counts requests executed in a batch that another caller led.
	Combined uint64
}

// New creates a combiner with the given engine hooks whose batches carry at
// most maxBatch requests (0: unbounded; 1 runs every request in a round of
// its own, the ablation of combining).
func New[T any](hooks Hooks[T], maxBatch int) *Combiner[T] {
	c := &Combiner[T]{hooks: hooks}
	c.q = NewQueue(maxBatch, c.round)
	return c
}

// Stats returns a snapshot of the batching counters. Safe to call
// concurrently with combining; counters are read individually, so the
// snapshot is only loosely consistent (fine for metrics).
func (c *Combiner[T]) Stats() Stats {
	return Stats{
		Batches:  c.seq.Load(),
		BatchOps: c.batchOps.Load(),
		Combined: c.combined.Load(),
	}
}

// Execute queues r and returns once its operations ran durably — in a batch
// this caller led or another one did — with their results in r. It
// re-raises an operation's panic.
func (c *Combiner[T]) Execute(r *Request[T]) {
	c.q.Enqueue(r)
	c.q.Wait(r)
	if p := r.pval; p != nil {
		r.pval = nil
		panic(p)
	}
}

// Exclusive runs f holding the slot, between durability rounds: f may write
// the engine's device alongside its writers, but runs no operation and
// commits nothing.
func (c *Combiner[T]) Exclusive(f func()) { c.q.exclusive(f) }

// round is the combiner's batch body: run the batch in one transaction,
// rescan, fold in late arrivals, and repeat until a rescan finds nothing
// new; then commit the whole batch in one durability round.
func (c *Combiner[T]) round(batch []*Request[T]) []*Request[T] {
	tx := c.hooks.Begin()
	ok := true
	for ran := 0; ok && ran < len(batch); ran++ {
		for i := 0; ok && i < len(batch[ran].Errs); i++ {
			ok = runOp(batch[ran], i, tx)
		}
		if ok && ran == len(batch)-1 {
			batch = c.q.more(batch) // rescan before the commit
		}
	}
	if ok {
		c.hooks.Commit(tx)
		seq := c.seq.Add(1)
		early := 0
		for i, r := range batch {
			r.Seq = seq
			if !r.Late {
				batch[early], batch[i] = r, batch[early]
				early++
			}
		}
		c.batchOps.Add(uint64(len(batch)))
		c.q.Release(batch[:early]...)
		c.hooks.Replicate(tx)
		c.q.Release(batch[early:]...)
	} else {
		// At least one operation failed: the whole transaction was rolled
		// back. Isolate failures by re-running each operation in its own
		// transaction (its own durability round).
		c.hooks.Rollback(tx)
		for _, r := range batch {
			c.runSolo(r)
		}
	}
	c.combined.Add(uint64(len(batch) - 1))
	return batch
}

// runSolo re-executes each operation of r in its own transaction after a
// batch failure, assigning each that succeeds its own durability round,
// then releases r.
func (c *Combiner[T]) runSolo(r *Request[T]) {
	r.Seq, r.pval = 0, nil
	for i := range r.Errs {
		tx := c.hooks.Begin()
		if runOp(r, i, tx) {
			c.hooks.Commit(tx)
			r.Seq = c.seq.Add(1)
			c.batchOps.Add(1)
			c.hooks.Replicate(tx)
		} else {
			c.hooks.Rollback(tx)
		}
	}
	c.q.Release(r)
}

// runOp invokes operation i of r, recording its error and capturing its
// panic. It returns false if the operation failed.
func runOp[T any](r *Request[T], i int, tx T) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			r.pval = p
			ok = false
		}
	}()
	r.Errs[i] = r.Op(tx, i)
	return r.Errs[i] == nil
}
