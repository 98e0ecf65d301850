package core

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/leftright"
	"repro/internal/obs"
	"repro/internal/ptm"
)

// Tx is the engine's transaction handle, implementing ptm.Tx. Writer
// transactions operate in place on main; RomulusLR read transactions may be
// directed at the back copy, in which case every access applies the
// synthetic-pointer offset (base points at back; Figure 3 of the paper).
type Tx struct {
	e        *Engine
	base     int // mainBase, or backBase for RomulusLR readers on back
	readOnly bool
	log      rangeLog

	// Trace accounting (plain fields: each Tx has a single mutator — the
	// combiner thread for the writer, the owning goroutine for readers).
	// Writes/writeBytes include allocator-metadata stores, which flow
	// through the same interposition path as user stores.
	loads      uint64
	stores     uint64
	writeBytes uint64
	// batchOps is the number of flat-combined operations this durability
	// round carries, set by the Commit hook before the durable point.
	batchOps int
}

var _ ptm.Tx = (*Tx)(nil)

func (t *Tx) mustWrite() {
	if t.readOnly {
		panic("core: mutating operation inside a read-only transaction")
	}
}

func (t *Tx) checkRange(p ptm.Ptr, n int) {
	if int(p)+n > t.e.regionSize {
		panic(fmt.Sprintf("core: access [%d,%d) outside region of %d bytes", p, int(p)+n, t.e.regionSize))
	}
}

// Load8 implements ptm.Tx.
func (t *Tx) Load8(p ptm.Ptr) byte {
	t.checkRange(p, 1)
	t.loads++
	return t.e.dev.Load8(t.base + int(p))
}

// Load16 implements ptm.Tx.
func (t *Tx) Load16(p ptm.Ptr) uint16 {
	t.checkRange(p, 2)
	t.loads++
	return t.e.dev.Load16(t.base + int(p))
}

// Load32 implements ptm.Tx.
func (t *Tx) Load32(p ptm.Ptr) uint32 {
	t.checkRange(p, 4)
	t.loads++
	return t.e.dev.Load32(t.base + int(p))
}

// Load64 implements ptm.Tx.
func (t *Tx) Load64(p ptm.Ptr) uint64 {
	t.checkRange(p, 8)
	t.loads++
	return t.e.dev.Load64(t.base + int(p))
}

// LoadBytes implements ptm.Tx.
func (t *Tx) LoadBytes(p ptm.Ptr, dst []byte) {
	t.checkRange(p, len(dst))
	t.loads++
	t.e.dev.LoadBytes(t.base+int(p), dst)
}

// stored completes store interposition after the in-place modification of
// main at device offset off: a log entry (address and length only) and a
// write-back of the modified lines. The paper notes the order of the three
// steps is free as long as the pwb precedes the commit fence, so by default
// the lines join the batch's deduplicated flush set and are written back
// exactly once at the durable point, however many stores (from however many
// combined operations) dirtied them.
//
// The range goes to the round's one dirty tracker: the volatile range log for
// the log variants, or the basic variant's cache-line dirty set, whose own
// enabled guard makes the doubly-disabled combination (a FullReplicate rom
// engine) a no-op — so the hot path pays one predicted branch here instead
// of an unconditional log call that re-tests enablement on every store.
func (t *Tx) stored(p ptm.Ptr, off, n int) {
	e := t.e
	if t.log.enabled {
		t.log.add(uint64(p), uint64(n))
	} else {
		e.dirty.add(uint64(p), uint64(n))
	}
	t.stores++
	t.writeBytes += uint64(n)
	switch {
	case e.cfg.DeferPwb && t.log.enabled:
		// Flushed from the compacted log at commit.
	case e.cfg.EagerPwb:
		e.dev.PwbRange(off, n)
	default:
		e.fset.Add(off, n)
	}
}

// Store8 implements ptm.Tx.
func (t *Tx) Store8(p ptm.Ptr, v byte) {
	t.mustWrite()
	t.checkRange(p, 1)
	off := t.e.mainBase + int(p)
	t.e.dev.Store8(off, v)
	t.stored(p, off, 1)
}

// Store16 implements ptm.Tx.
func (t *Tx) Store16(p ptm.Ptr, v uint16) {
	t.mustWrite()
	t.checkRange(p, 2)
	off := t.e.mainBase + int(p)
	t.e.dev.Store16(off, v)
	t.stored(p, off, 2)
}

// Store32 implements ptm.Tx.
func (t *Tx) Store32(p ptm.Ptr, v uint32) {
	t.mustWrite()
	t.checkRange(p, 4)
	off := t.e.mainBase + int(p)
	t.e.dev.Store32(off, v)
	t.stored(p, off, 4)
}

// Store64 implements ptm.Tx.
func (t *Tx) Store64(p ptm.Ptr, v uint64) {
	t.mustWrite()
	t.checkRange(p, 8)
	off := t.e.mainBase + int(p)
	t.e.dev.Store64(off, v)
	t.stored(p, off, 8)
}

// StoreBytes implements ptm.Tx.
func (t *Tx) StoreBytes(p ptm.Ptr, src []byte) {
	t.mustWrite()
	t.checkRange(p, len(src))
	off := t.e.mainBase + int(p)
	t.e.dev.StoreBytes(off, src)
	t.stored(p, off, len(src))
}

// memset zeroes a fresh allocation through the same interposition path.
func (t *Tx) memset(p ptm.Ptr, n int) {
	off := t.e.mainBase + int(p)
	t.e.dev.Memset(off, 0, n)
	t.stored(p, off, n)
}

// Alloc implements ptm.Tx: transactional allocation from the persistent
// heap. The returned memory is zeroed.
func (t *Tx) Alloc(n int) (ptm.Ptr, error) {
	t.mustWrite()
	p, err := t.e.heap.Alloc(n)
	if err != nil {
		if errors.Is(err, alloc.ErrOutOfMemory) {
			return 0, ptm.ErrOutOfMemory
		}
		return 0, err
	}
	t.e.bumpWatermark()
	if n > 0 {
		t.memset(ptm.Ptr(p), n)
	}
	return ptm.Ptr(p), nil
}

// Free implements ptm.Tx: transactional release back to the heap.
func (t *Tx) Free(p ptm.Ptr) error {
	t.mustWrite()
	if err := t.e.heap.Free(uint64(p)); err != nil {
		if errors.Is(err, alloc.ErrBadFree) {
			return ptm.ErrBadFree
		}
		return err
	}
	return nil
}

// Root implements ptm.Tx.
func (t *Tx) Root(i int) ptm.Ptr {
	if i < 0 || i >= ptm.NumRoots {
		panic(fmt.Sprintf("core: root index %d out of [0,%d)", i, ptm.NumRoots))
	}
	return ptm.Ptr(t.e.dev.Load64(t.base + rootsOff + 8*i))
}

// SetRoot implements ptm.Tx.
func (t *Tx) SetRoot(i int, p ptm.Ptr) {
	if i < 0 || i >= ptm.NumRoots {
		panic(fmt.Sprintf("core: root index %d out of [0,%d)", i, ptm.NumRoots))
	}
	t.Store64(ptm.Ptr(rootsOff+8*i), uint64(p))
}

// Handle carries the per-goroutine state (flat-combining slot, read
// indicator slot) of one logical thread. Acquire one per worker goroutine
// on hot paths; the engine-level Update/Read draw from an internal pool.
type Handle struct {
	e   *Engine
	tid int
	rtx Tx // reusable read transaction
}

var _ ptm.Handle = (*Handle)(nil)

// NewHandle registers a logical thread with the engine.
func (e *Engine) NewHandle() (ptm.Handle, error) {
	return e.newHandle()
}

func (e *Engine) newHandle() (*Handle, error) {
	tid, err := e.reg.Acquire()
	if err != nil {
		return nil, err
	}
	h := &Handle{e: e, tid: tid}
	h.rtx = Tx{e: e, readOnly: true, base: e.mainBase}
	return h, nil
}

// Release returns the handle's thread ID for reuse. The handle must not be
// used afterwards.
func (h *Handle) Release() { h.e.reg.Release(h.tid) }

// Update runs fn in a durable update transaction (see ptm.PTM).
func (h *Handle) Update(fn func(ptm.Tx) error) error {
	_, err := h.UpdateBatched(fn)
	return err
}

// UpdateBatched is Update but also reports the durability round (combiner
// batch sequence number, assigned in commit order from 1) that made fn's
// effects durable. Operations reporting the same round committed atomically
// in one crash-atomic batch: after a crash, recovery exposes either all or
// none of them. A failed (rolled-back) operation reports round 0.
func (h *Handle) UpdateBatched(fn func(ptm.Tx) error) (uint64, error) {
	return h.e.update(h.tid, fn)
}

// UpdateDirect runs fn in a durable update transaction through the
// combiner's single-writer entry: no announcement and no yield. It folds in
// whatever the embedded writers have announced and commits them with fn in
// one durability round. It is meant for a caller that already batches, one
// goroutine per engine (the group committer, via shard.Update); concurrent
// writers should use Update, which combines. Needs no handle. It returns
// only after the round's replication, while the announced writers it folds
// in are released at the durable point.
func (e *Engine) UpdateDirect(fn func(ptm.Tx) error) error {
	_, err := e.update(-1, fn)
	return err
}

// update runs fn through the combiner: announced in thread tid's slot, or
// through the direct entry when tid < 0 or the DisableFlatCombining ablation
// is on (nobody announces then, so every writer serializes on the writer
// lock with no aggregation).
func (e *Engine) update(tid int, fn func(ptm.Tx) error) (uint64, error) {
	// A media-fault trip during fn means it computed on corrupted loads; the
	// returned error rolls the transaction back through the combiner, so no
	// fault-tainted state commits. (The trip counter is device-global, so a
	// concurrent reader's trip can fail an innocent update — conservative,
	// never unsafe.)
	op := func(t *Tx) error {
		trips := e.dev.FaultsTripped()
		err := fn(t)
		if e.dev.FaultsTripped() != trips {
			// The fault takes precedence over fn's own error: corrupted loads
			// can make fn fail with a plausible-but-wrong error (e.g. a key
			// compare against rotted bytes reporting "not found").
			return e.dev.FaultError()
		}
		return err
	}
	var (
		seq uint64
		err error
	)
	if tid < 0 || e.cfg.DisableFlatCombining {
		seq, err = e.comb.ExecuteDirect(op)
	} else {
		seq, err = e.comb.ExecuteSeq(tid, op)
	}
	if err == nil {
		e.updates.Add(1)
	}
	return seq, err
}

// Read runs fn in a read-only transaction (see ptm.PTM).
func (h *Handle) Read(fn func(ptm.Tx) error) error {
	e := h.e
	t := &h.rtx
	if e.cfg.Variant == RomLR {
		vi := e.lr.Arrive(h.tid)
		defer e.lr.Depart(h.tid, vi)
		if e.lr.Read() == leftright.Back {
			t.base = e.backBase // synthetic pointers: +regionSize on every access
		} else {
			t.base = e.mainBase
		}
	} else {
		e.rw.SharedLock(h.tid)
		defer e.rw.SharedUnlock(h.tid)
		t.base = e.mainBase
	}
	e.reads.Add(1)
	t.loads = 0
	trips := e.dev.FaultsTripped()
	err := fn(t)
	if e.dev.FaultsTripped() != trips {
		// fn consumed corrupted loads; surface the typed media fault rather
		// than let the caller trust the data — or trust fn's own error, which
		// corrupted loads may have fabricated.
		err = e.dev.FaultError()
	}
	if s := e.trace; s != nil {
		out := obs.OutcomeOK
		if err != nil {
			out = obs.OutcomeError
		}
		s.Emit(obs.TxEvent{
			Engine:  e.cfg.Variant.String(),
			Kind:    obs.KindRead,
			Outcome: out,
			Reads:   t.loads,
		})
	}
	return err
}

// Update implements ptm.PTM using a pooled handle.
func (e *Engine) Update(fn func(ptm.Tx) error) error {
	h, err := e.poolGet()
	if err != nil {
		return err
	}
	defer e.poolPut(h)
	return h.Update(fn)
}

// Read implements ptm.PTM using a pooled handle.
func (e *Engine) Read(fn func(ptm.Tx) error) error {
	h, err := e.poolGet()
	if err != nil {
		return err
	}
	defer e.poolPut(h)
	return h.Read(fn)
}

func (e *Engine) poolGet() (*Handle, error) {
	select {
	case h := <-e.handles:
		return h, nil
	default:
		return e.newHandle()
	}
}

func (e *Engine) poolPut(h *Handle) {
	select {
	case e.handles <- h:
	default:
		h.Release()
	}
}
