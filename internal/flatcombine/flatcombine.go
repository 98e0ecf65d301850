// Package flatcombine implements the flat-combining writer path used by
// every concurrent Romulus variant (§5.2, §5.3 of the paper): update
// operations announce themselves in a per-thread array; whichever announcer
// wins the writer lock becomes the combiner, executes every announced
// operation inside a single durable transaction, and signals completion at
// the transaction's durable point. Aggregation amortizes lock hand-offs and
// persistence fences — with combining, the average number of fences per
// mutation drops below the four a solo transaction pays.
//
// A round ends in two hooks. Commit makes the batch durable and lets readers
// at it; the combiner then releases every announcer whose operation the
// batch carried, and only after that runs Replicate, which readies the twin
// copy for the next round. The writer lock stays held through Replicate, so
// the next Begin still finds the copies equal; what the split buys is that a
// folded-in announcer does not wait for work that only serves the next
// transaction. The combiner itself, and every ExecuteDirect caller, return
// after Replicate.
//
// The combiner drains, not just gathers: after executing the announcements
// it found on entry it rescans the array and folds any operations announced
// meanwhile into the same open transaction, repeating until a scan comes up
// empty. Only then does it pay the single durability round (one log replay /
// one main→back sync, one set of fences) for the whole batch, so the batch
// keeps growing for as long as writers keep arriving and the per-operation
// fence cost falls with contention instead of rising.
//
// Two entries share that one combine body. Execute/ExecuteSeq are the
// embedded multi-writer path — shard.Store's Put/Delete/Write and every
// engine Update go through it: announce, yield once, then compete for the
// writer lock. ExecuteDirect is the single-writer path for a caller that
// already batches on its own, one at a time per engine (the server's
// connection reader that leads the shard's batch, through shard.Update and
// core.Engine.UpdateDirect): it takes the writer lock without announcing or
// yielding, runs its operation first and folds in whatever the embedded
// writers have announced meanwhile. The
// DisableFlatCombining ablation also takes the direct entry, so every writer
// still serializes on the one writer lock. Scans of the announcement array
// stop at the high-water mark of announced thread ids.
//
// The combiner is generic over the transaction handle type T supplied by
// the engine's Hooks, so the same code drives Romulus, RomulusLog and
// RomulusLR (which differ in what Begin/Commit do: reader draining and
// release for C-RW-WP, version toggling for left-right).
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
	"sync/atomic"
	"time"

	"repro/internal/hsync"
)

// Op is an announced update operation.
type Op[T any] func(tx T) error

// Hooks connect the combiner to a PTM engine. All four are invoked with
// the writer lock held, in the strict sequence Begin, then user operations,
// then either Commit followed by Replicate, or Rollback.
type Hooks[T any] struct {
	// Begin opens an update transaction and returns the handle passed to
	// the announced operations. For C-RW-WP engines it also drains readers;
	// for left-right it performs the first version toggle.
	Begin func() T
	// Commit makes the transaction durable (the psync of Algorithm 1) and
	// publishes its effects to readers. ops is the number of announced
	// operations the transaction carries, so the engine can attribute the
	// durability round to the whole batch. The batch's announcers are
	// released as soon as it returns.
	Commit func(tx T, ops int)
	// Replicate finishes the round after its announcers were released:
	// whatever the next transaction needs (the main→back copy and its
	// fence), none of which any caller's result depends on.
	Replicate func(tx T)
	// Rollback reverts every effect of the transaction using the twin copy
	// (or the engine's log) and releases whatever Begin acquired.
	Rollback func(tx T)
}

type reqState int32

const (
	statePending reqState = iota
	stateClaimed          // gathered into the current combiner's open batch
	stateDone
)

type request[T any] struct {
	op    Op[T]
	err   error
	pval  any    // value recovered from a panicking op, re-raised at the owner
	seq   uint64 // durability round that committed this op (0 = rolled back)
	state atomic.Int32
}

type paddedSlot[T any] struct {
	req atomic.Pointer[request[T]]
	_   [120]byte
}

// Combiner is a flat-combining array paired with a writer spin lock.
type Combiner[T any] struct {
	slots [hsync.MaxThreads]paddedSlot[T]
	// hwm is one past the highest tid that ever announced; gather scans only
	// slots below it. Monotone: a tid raises it before its first announcement,
	// and an announcement a scan misses is a late arrival that combines for
	// itself.
	hwm   atomic.Int32
	lock  hsync.SpinLock
	hooks Hooks[T]
	// batch and direct belong to the writer-lock holder: the batch buffer
	// every round reuses, and the request ExecuteDirect runs its op through.
	batch     []*request[T]
	direct    request[T]
	combined  atomic.Uint64 // ops executed on behalf of other threads
	seq       atomic.Uint64 // committed durability rounds, monotone
	batchOps  atomic.Uint64 // ops retired across committed rounds
	maxBatch  atomic.Uint64 // largest single committed batch
	combineNs atomic.Uint64 // total wall time spent inside combining passes
}

// Stats is a snapshot of a combiner's batching counters.
type Stats struct {
	// Batches counts committed durability rounds. Each round pays one set
	// of commit fences regardless of how many operations it carries.
	Batches uint64
	// BatchOps counts operations retired across those rounds, so
	// BatchOps/Batches is the mean batch size.
	BatchOps uint64
	// Combined counts operations executed by a combiner on behalf of
	// another thread.
	Combined uint64
	// MaxBatch is the largest single committed batch.
	MaxBatch uint64
	// CombineNs is total wall-clock nanoseconds spent inside combining
	// passes (batch execution plus its durability round).
	CombineNs uint64
}

// New creates a combiner with the given engine hooks.
func New[T any](hooks Hooks[T]) *Combiner[T] {
	return &Combiner[T]{hooks: hooks}
}

// Stats returns a snapshot of the batching counters. Safe to call
// concurrently with combining; counters are read individually, so the
// snapshot is only loosely consistent (fine for metrics).
func (c *Combiner[T]) Stats() Stats {
	return Stats{
		Batches:   c.seq.Load(),
		BatchOps:  c.batchOps.Load(),
		Combined:  c.combined.Load(),
		MaxBatch:  c.maxBatch.Load(),
		CombineNs: c.combineNs.Load(),
	}
}

// Execute announces op in the slot of thread tid and waits until it has been
// executed durably — either by this thread (if it wins the writer lock and
// becomes the combiner) or by another combiner. It returns the operation's
// error and re-raises its panic, if any.
func (c *Combiner[T]) Execute(tid int, op Op[T]) error {
	_, err := c.ExecuteSeq(tid, op)
	return err
}

// ExecuteSeq is Execute but also returns the durability round (batch
// sequence number) that committed the operation. Rounds are assigned in
// commit order starting at 1; operations committed by the same round share
// a number and became durable atomically. A rolled-back (failed) operation
// reports round 0.
func (c *Combiner[T]) ExecuteSeq(tid int, op Op[T]) (uint64, error) {
	req := &request[T]{op: op}
	for h := c.hwm.Load(); int32(tid) >= h; h = c.hwm.Load() {
		if c.hwm.CompareAndSwap(h, int32(tid)+1) {
			break
		}
	}
	c.slots[tid].req.Store(req)
	// Announce-then-yield: give up the processor once between announcing and
	// competing for the writer lock. A combiner running elsewhere gets a
	// chance to fold this request into its open batch instead of losing the
	// lock hand-off race to us, and on oversubscribed (or single-processor)
	// schedulers the yield creates the arrival overlap that hardware
	// parallelism provides naturally — without it every thread finds the
	// lock free and self-combines, so batches never exceed one operation.
	runtime.Gosched()
	for spins := 0; ; spins++ {
		if req.state.Load() == int32(stateDone) {
			break
		}
		if c.lock.TryLock() {
			c.combine(nil)
			c.lock.Unlock()
			if req.state.Load() == int32(stateDone) {
				break
			}
			continue
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
	// The slot may already hold a newer request from a reuse of this tid;
	// only clear it if it is still ours.
	c.slots[tid].req.CompareAndSwap(req, nil)
	if req.pval != nil {
		panic(req.pval)
	}
	return req.seq, req.err
}

// ExecuteDirect runs op as the single writer: it takes the writer lock
// without announcing or yielding, executes op first, folds in every
// operation other threads have announced, and commits them all in one
// durability round. It returns the round and op's error and re-raises op's
// panic, like ExecuteSeq.
func (c *Combiner[T]) ExecuteDirect(op Op[T]) (uint64, error) {
	c.lock.Lock()
	r := &c.direct
	r.op = op
	c.combine(r)
	seq, err, pval := r.seq, r.err, r.pval
	r.op, r.err, r.pval = nil, nil, nil
	c.lock.Unlock()
	if pval != nil {
		panic(pval)
	}
	return seq, err
}

// Exclusive runs f holding the writer lock, between durability rounds: f
// may write the engine's device alongside its writers, but runs no
// operation and commits nothing.
func (c *Combiner[T]) Exclusive(f func()) {
	c.lock.Lock()
	defer c.lock.Unlock()
	f()
}

// gather scans the announcement array up to the high-water mark and claims
// every pending request, appending it to batch. Claiming (rather than
// leaving requests pending) lets the drain loop rescan without re-collecting
// operations already in the open transaction. Called with the writer lock
// held.
func (c *Combiner[T]) gather(batch []*request[T]) []*request[T] {
	for i := range c.slots[:c.hwm.Load()] {
		r := c.slots[i].req.Load()
		if r != nil && r.state.Load() == int32(statePending) {
			r.state.Store(int32(stateClaimed))
			batch = append(batch, r)
		}
	}
	return batch
}

// combine drains the announcement array into a single transaction: execute
// own (the direct entry's op, or nil) and what was pending on entry, rescan,
// fold in late arrivals, and repeat until a scan finds nothing new; then
// commit the whole batch in one durability round. Called with the writer
// lock held.
func (c *Combiner[T]) combine(own *request[T]) {
	batch := c.batch[:0]
	if own != nil {
		batch = append(batch, own)
	}
	batch = c.gather(batch)
	if len(batch) == 0 {
		return
	}
	start := time.Now()
	tx := c.hooks.Begin()
	ok, ran := true, 0
	for ok {
		for ran < len(batch) {
			r := batch[ran]
			ran++
			r.err, r.pval = nil, nil
			if !runOp(r, tx) {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		next := c.gather(batch)
		if len(next) == len(batch) {
			break
		}
		batch = next
	}
	if ok {
		c.hooks.Commit(tx, len(batch))
		seq := c.seq.Add(1)
		for _, r := range batch {
			r.seq = seq
		}
		c.recordBatch(len(batch))
		c.finish(batch...)
		c.hooks.Replicate(tx)
	} else {
		// At least one operation failed: the whole transaction was rolled
		// back. Isolate failures by re-running each claimed operation in its
		// own transaction (its own durability round).
		c.hooks.Rollback(tx)
		for _, r := range batch {
			c.runSolo(r)
		}
	}
	c.combined.Add(uint64(len(batch) - 1))
	c.combineNs.Add(uint64(time.Since(start)))
	clear(batch) // the buffer outlives the round; drop the requests
	c.batch = batch[:0]
}

// runSolo re-executes one operation in its own transaction after a batch
// failure, assigning it its own durability round on success, and releases
// its owner.
func (c *Combiner[T]) runSolo(r *request[T]) {
	tx := c.hooks.Begin()
	r.err, r.pval = nil, nil
	if runOp(r, tx) {
		c.hooks.Commit(tx, 1)
		r.seq = c.seq.Add(1)
		c.recordBatch(1)
		c.finish(r)
		c.hooks.Replicate(tx)
	} else {
		c.hooks.Rollback(tx)
		r.seq = 0
		c.finish(r)
	}
}

// recordBatch accounts one committed durability round of ops operations.
func (c *Combiner[T]) recordBatch(ops int) {
	c.batchOps.Add(uint64(ops))
	for {
		cur := c.maxBatch.Load()
		if uint64(ops) <= cur || c.maxBatch.CompareAndSwap(cur, uint64(ops)) {
			return
		}
	}
}

// runOp invokes a single operation, capturing error and panic. It returns
// false if the operation failed.
func runOp[T any](r *request[T], tx T) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			r.pval = p
			ok = false
		}
	}()
	r.err = r.op(tx)
	return r.err == nil
}

// finish marks every request done, releasing its owner. Only called once
// durability (or rollback) is settled — after Commit, before Replicate —
// matching the paper's rule that visibility implies durability.
func (c *Combiner[T]) finish(reqs ...*request[T]) {
	for _, r := range reqs {
		r.state.Store(int32(stateDone))
	}
}
