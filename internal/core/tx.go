package core

import (
	"cmp"
	"errors"
	"fmt"
	"sync"

	"repro/internal/alloc"
	"repro/internal/flatcombine"
	"repro/internal/leftright"
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
	return t.e.dev.Load8(t.base + int(p))
}

// Load16 implements ptm.Tx.
func (t *Tx) Load16(p ptm.Ptr) uint16 {
	t.checkRange(p, 2)
	return t.e.dev.Load16(t.base + int(p))
}

// Load32 implements ptm.Tx.
func (t *Tx) Load32(p ptm.Ptr) uint32 {
	t.checkRange(p, 4)
	return t.e.dev.Load32(t.base + int(p))
}

// Load64 implements ptm.Tx.
func (t *Tx) Load64(p ptm.Ptr) uint64 {
	t.checkRange(p, 8)
	return t.e.dev.Load64(t.base + int(p))
}

// LoadBytes implements ptm.Tx.
func (t *Tx) LoadBytes(p ptm.Ptr, dst []byte) {
	t.checkRange(p, len(dst))
	t.e.dev.LoadBytes(t.base+int(p), dst)
}

// stored completes store interposition after the in-place modification of
// main at device offset off: the modified lines join the round's line set,
// the one record of the store. The paper notes the order of modify, record
// and write-back is free as long as the pwb precedes the commit fence, so the
// durable point writes each line back exactly once, however many stores
// (from however many combined operations) dirtied it; replication then
// copies the same lines to back.
func (t *Tx) stored(off, n int) { t.e.lines.Add(off, n) }

// Store8 implements ptm.Tx.
func (t *Tx) Store8(p ptm.Ptr, v byte) {
	t.mustWrite()
	t.checkRange(p, 1)
	off := t.e.mainBase + int(p)
	t.e.dev.Store8(off, v)
	t.stored(off, 1)
}

// Store16 implements ptm.Tx.
func (t *Tx) Store16(p ptm.Ptr, v uint16) {
	t.mustWrite()
	t.checkRange(p, 2)
	off := t.e.mainBase + int(p)
	t.e.dev.Store16(off, v)
	t.stored(off, 2)
}

// Store32 implements ptm.Tx.
func (t *Tx) Store32(p ptm.Ptr, v uint32) {
	t.mustWrite()
	t.checkRange(p, 4)
	off := t.e.mainBase + int(p)
	t.e.dev.Store32(off, v)
	t.stored(off, 4)
}

// Store64 implements ptm.Tx.
func (t *Tx) Store64(p ptm.Ptr, v uint64) {
	t.mustWrite()
	t.checkRange(p, 8)
	off := t.e.mainBase + int(p)
	t.e.dev.Store64(off, v)
	t.stored(off, 8)
}

// StoreBytes implements ptm.Tx.
func (t *Tx) StoreBytes(p ptm.Ptr, src []byte) {
	t.mustWrite()
	t.checkRange(p, len(src))
	off := t.e.mainBase + int(p)
	t.e.dev.StoreBytes(off, src)
	t.stored(off, len(src))
}

// memset zeroes a fresh allocation through the same interposition path.
func (t *Tx) memset(p ptm.Ptr, n int) {
	off := t.e.mainBase + int(p)
	t.e.dev.Memset(off, 0, n)
	t.stored(off, n)
}

// Alloc implements ptm.Tx: transactional allocation from the persistent
// heap. The returned memory is zeroed.
func (t *Tx) Alloc(n int) (ptm.Ptr, error) { return t.alloc(n, (*alloc.Heap).Alloc) }

// AllocAligned implements ptm.Tx: Alloc of a line-aligned chunk.
func (t *Tx) AllocAligned(n int) (ptm.Ptr, error) { return t.alloc(n, (*alloc.Heap).AllocAligned) }

func (t *Tx) alloc(n int, pick func(*alloc.Heap, int) (uint64, error)) (ptm.Ptr, error) {
	t.mustWrite()
	p, err := pick(t.e.heap, n)
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

// UpdateBatched is Update but also reports the durability round (combiner
// batch sequence number, assigned in commit order from 1) that made fn's
// effects durable. Operations reporting the same round committed atomically
// in one crash-atomic batch: after a crash, recovery exposes either all or
// none of them. A failed (rolled-back) operation reports round 0.
func (e *Engine) UpdateBatched(fn func(ptm.Tx) error) (uint64, error) {
	return e.update(fn, nil, nil)
}

// UpdateEach runs each(tx, i) for every i < len(errs) as one request of the
// combiner: all of them in the same durability round, unless an operation
// of the round fails and each runs alone. errs[i] receives operation i's
// error. It returns only after the round's replication, where Update
// returns at the durable point: the server's group leader hands its batch
// over through it, and its replies follow the replication.
func (e *Engine) UpdateEach(each func(tx ptm.Tx, i int) error, errs []error) {
	e.update(nil, each, errs)
}

// request is one Update or UpdateEach in an engine's combiner queue, pooled
// with its wake channel. Its Op, bound once, is run; an UpdateEach request is
// Late.
type request struct {
	flatcombine.Request[*Tx]
	e    *Engine
	fn   func(ptm.Tx) error
	each func(ptm.Tx, int) error
	one  [1]error // Errs of an Update
}

// requests pools requests across engines; a pooled one holds no engine.
var requests = sync.Pool{New: func() any {
	r := new(request)
	r.Op = r.run
	return r
}}

// run is a request's operation i: fn, or each(t, i). A media-fault trip
// during it means it computed on corrupted loads; the returned error rolls
// the transaction back through the combiner, so no fault-tainted state
// commits. (The trip counter is device-global, so a concurrent reader's trip
// can fail an innocent update — conservative, never unsafe.)
func (r *request) run(t *Tx, i int) error {
	d := r.e.dev
	trips := d.FaultsTripped()
	var err error
	if r.each != nil {
		err = r.each(t, i)
	} else {
		err = r.fn(t)
	}
	if d.FaultsTripped() != trips {
		// The fault takes precedence over the operation's own error:
		// corrupted loads can make it fail with a plausible-but-wrong error
		// (e.g. a key compare against rotted bytes reporting "not found").
		return d.FaultError()
	}
	return err
}

// update runs fn, or each over errs, through the combiner and returns the
// round that committed it and its first error.
func (e *Engine) update(fn func(ptm.Tx) error, each func(ptm.Tx, int) error, errs []error) (uint64, error) {
	r := requests.Get().(*request)
	r.e, r.fn, r.each, r.Errs, r.Late, r.Owner = e, fn, each, errs, each != nil, 0
	if fn != nil {
		r.Errs = r.one[:]
	} else {
		// An UpdateEach caller batches for itself: it takes turns with the
		// anonymous embedded writers instead of yielding to each of them.
		// Its callers (the group leaders, 2PC applies, migration steps)
		// share the one advisory owner id.
		r.Owner = 1
	}
	e.comb.Execute(&r.Request)
	seq, err := r.Seq, cmp.Or(r.Errs...)
	r.e, r.fn, r.each, r.Errs, r.one[0] = nil, nil, nil, nil, nil
	requests.Put(r)
	if err == nil {
		e.updates.Add(1)
	}
	return seq, err
}

// readTxs pools read transactions across engines; a pooled one holds no
// engine, so the pool keeps no engine or device alive.
var readTxs = sync.Pool{New: func() any { return &Tx{readOnly: true} }}

func putReadTx(t *Tx) {
	t.e = nil
	readTxs.Put(t)
}

// Read implements ptm.PTM: fn runs in a pooled read-only transaction. A
// reader registers nothing: it arrives on a stripe of the variant's read
// indicator and departs from it.
func (e *Engine) Read(fn func(ptm.Tx) error) error {
	t := readTxs.Get().(*Tx)
	t.e = e
	defer putReadTx(t)
	if e.cfg.Variant == RomLR {
		r := e.lr.Arrive()
		defer e.lr.Depart(r)
		if e.lr.Read() == leftright.Back {
			t.base = e.backBase // synthetic pointers: +regionSize on every access
		} else {
			t.base = e.mainBase
		}
	} else {
		s := e.rw.SharedLock()
		defer e.rw.SharedUnlock(s)
		t.base = e.mainBase
	}
	e.reads.Add(1)
	trips := e.dev.FaultsTripped()
	err := fn(t)
	if e.dev.FaultsTripped() != trips {
		// fn consumed corrupted loads; surface the typed media fault rather
		// than let the caller trust the data — or trust fn's own error, which
		// corrupted loads may have fabricated.
		err = e.dev.FaultError()
	}
	return err
}

// Update implements ptm.PTM.
func (e *Engine) Update(fn func(ptm.Tx) error) error {
	_, err := e.update(fn, nil, nil)
	return err
}
