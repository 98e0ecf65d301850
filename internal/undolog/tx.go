package undolog

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/ptm"
)

// Tx implements ptm.Tx with undo logging. For every range modified for the
// first time in the transaction, the protocol is:
//
//  1. append (addr, len, old data) to the log; pwb; pfence
//  2. bump the persistent entry count; pwb; pfence
//  3. perform the in-place store; pwb
//
// Step 1's fence guarantees the old data is durable before the count admits
// the entry; step 2's fence guarantees the entry is durable before the
// in-place modification can possibly reach the media. This is the ordering
// obligation that gives undo-log PTMs their per-range fence cost (Table 1).
type Tx struct {
	e        *Engine
	readOnly bool
	logTail  int             // next free byte in the log region
	logged   map[uint64]bool // word addresses already logged this tx
	failed   error           // sticky failure (log overflow)
}

var _ ptm.Tx = (*Tx)(nil)

func (t *Tx) mustWrite() {
	if t.readOnly {
		panic("undolog: mutating operation inside a read-only transaction")
	}
}

func (t *Tx) checkRange(p ptm.Ptr, n int) {
	if int(p)+n > t.e.regionSize {
		panic(fmt.Sprintf("undolog: access [%d,%d) outside region of %d bytes", p, int(p)+n, t.e.regionSize))
	}
}

// logRange appends an undo entry snapshotting [p, p+n) and makes it
// durable. Reports false (and poisons the transaction) on overflow.
func (t *Tx) logRange(p ptm.Ptr, n int) bool {
	if t.failed != nil {
		return false
	}
	d := t.e.dev
	entry := 16 + ptm.Align(n, 8)
	if t.logTail+entry > t.e.logBase+t.e.logSize {
		t.failed = ErrLogFull
		return false
	}
	o := t.logTail
	d.Store64(o, uint64(p))
	d.Store64(o+8, uint64(n))
	d.CopyWithin(o+16, t.e.mainBase+int(p), n)
	d.PwbRange(o, entry)
	d.Pfence()
	cnt, ok := decodeCount(d.Load64(offLogCount))
	if !ok {
		// The count word failed its self-check mid-run: a media fault
		// corrupted the loaded value. Poison the transaction so it rolls
		// back rather than publishing a count derived from garbage.
		t.failed = fmt.Errorf("undolog: log count word fails its self-check: %w", ErrCorruptLog)
		return false
	}
	d.Store64(offLogCount, encodeCount(cnt+1))
	d.Pwb(offLogCount)
	d.Pfence()
	t.logTail += entry
	return true
}

// logWord logs an 8-byte-aligned word once per transaction.
func (t *Tx) logWord(p ptm.Ptr) bool {
	w := uint64(p) &^ 7
	if t.logged[w] {
		return t.failed == nil
	}
	if !t.logRange(ptm.Ptr(w), 8) {
		return false
	}
	t.logged[w] = true
	return true
}

// Load8 implements ptm.Tx.
func (t *Tx) Load8(p ptm.Ptr) byte {
	t.checkRange(p, 1)
	return t.e.dev.Load8(t.e.mainBase + int(p))
}

// Load16 implements ptm.Tx.
func (t *Tx) Load16(p ptm.Ptr) uint16 {
	t.checkRange(p, 2)
	return t.e.dev.Load16(t.e.mainBase + int(p))
}

// Load32 implements ptm.Tx.
func (t *Tx) Load32(p ptm.Ptr) uint32 {
	t.checkRange(p, 4)
	return t.e.dev.Load32(t.e.mainBase + int(p))
}

// Load64 implements ptm.Tx.
func (t *Tx) Load64(p ptm.Ptr) uint64 {
	t.checkRange(p, 8)
	return t.e.dev.Load64(t.e.mainBase + int(p))
}

// LoadBytes implements ptm.Tx.
func (t *Tx) LoadBytes(p ptm.Ptr, dst []byte) {
	t.checkRange(p, len(dst))
	t.e.dev.LoadBytes(t.e.mainBase+int(p), dst)
}

// Store8 implements ptm.Tx.
func (t *Tx) Store8(p ptm.Ptr, v byte) {
	t.mustWrite()
	t.checkRange(p, 1)
	if !t.logWord(p) {
		return
	}
	off := t.e.mainBase + int(p)
	t.e.dev.Store8(off, v)
	t.e.dev.Pwb(off)
}

// Store16 implements ptm.Tx.
func (t *Tx) Store16(p ptm.Ptr, v uint16) {
	t.mustWrite()
	t.checkRange(p, 2)
	if !t.logWord(p) || (uint64(p)&7) > 6 && !t.logWord(p+1) {
		return
	}
	off := t.e.mainBase + int(p)
	t.e.dev.Store16(off, v)
	t.e.dev.PwbRange(off, 2)
}

// Store32 implements ptm.Tx.
func (t *Tx) Store32(p ptm.Ptr, v uint32) {
	t.mustWrite()
	t.checkRange(p, 4)
	if !t.logWord(p) || (uint64(p)&7) > 4 && !t.logWord(p+4) {
		return
	}
	off := t.e.mainBase + int(p)
	t.e.dev.Store32(off, v)
	t.e.dev.PwbRange(off, 4)
}

// Store64 implements ptm.Tx.
func (t *Tx) Store64(p ptm.Ptr, v uint64) {
	t.mustWrite()
	t.checkRange(p, 8)
	if !t.logWord(p) || (uint64(p)&7) != 0 && !t.logWord(p+7) {
		return
	}
	off := t.e.mainBase + int(p)
	t.e.dev.Store64(off, v)
	t.e.dev.PwbRange(off, 8)
}

// StoreBytes implements ptm.Tx. Byte ranges are logged as one entry (like
// PMDK's range snapshots) rather than per word.
func (t *Tx) StoreBytes(p ptm.Ptr, src []byte) {
	t.mustWrite()
	t.checkRange(p, len(src))
	if len(src) == 0 {
		return
	}
	if !t.logRange(p, len(src)) {
		return
	}
	off := t.e.mainBase + int(p)
	t.e.dev.StoreBytes(off, src)
	t.e.dev.PwbRange(off, len(src))
}

// memset zeroes fresh allocations through the same logged path.
func (t *Tx) memset(p ptm.Ptr, n int) {
	if n == 0 || !t.logRange(p, n) {
		return
	}
	off := t.e.mainBase + int(p)
	t.e.dev.Memset(off, 0, n)
	t.e.dev.PwbRange(off, n)
}

// Alloc implements ptm.Tx.
func (t *Tx) Alloc(n int) (ptm.Ptr, error) { return t.alloc(n, (*alloc.Heap).Alloc) }

// AllocAligned implements ptm.Tx.
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
	if t.failed != nil {
		return 0, t.failed
	}
	t.memset(ptm.Ptr(p), n)
	if t.failed != nil {
		return 0, t.failed
	}
	return ptm.Ptr(p), nil
}

// Free implements ptm.Tx.
func (t *Tx) Free(p ptm.Ptr) error {
	t.mustWrite()
	if err := t.e.heap.Free(uint64(p)); err != nil {
		if errors.Is(err, alloc.ErrBadFree) {
			return ptm.ErrBadFree
		}
		return err
	}
	return t.failed
}

// Root implements ptm.Tx.
func (t *Tx) Root(i int) ptm.Ptr {
	if i < 0 || i >= ptm.NumRoots {
		panic(fmt.Sprintf("undolog: root index %d out of [0,%d)", i, ptm.NumRoots))
	}
	return ptm.Ptr(t.e.dev.Load64(t.e.mainBase + rootsOff + 8*i))
}

// SetRoot implements ptm.Tx.
func (t *Tx) SetRoot(i int, p ptm.Ptr) {
	if i < 0 || i >= ptm.NumRoots {
		panic(fmt.Sprintf("undolog: root index %d out of [0,%d)", i, ptm.NumRoots))
	}
	t.Store64(ptm.Ptr(rootsOff+8*i), uint64(p))
}
