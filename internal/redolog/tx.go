package redolog

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/alloc"
	"repro/internal/ptm"
)

// abortSignal unwinds a conflicted transaction attempt; the retry loops in
// Update/Read recover it. User code must not swallow panics wholesale
// inside transactions (the same rule TL2-style STMs impose).
type abortSignal struct{}

// Tx implements ptm.Tx with lazy versioning: stores buffer in a volatile
// write set; loads check the write set first (the load interposition the
// paper charges Mnemosyne for) and validate stripe versions against the
// transaction's read version. Nothing touches the persistent region until
// commit, so user-level "rollback" is free.
type Tx struct {
	e        *Engine
	seg      int // the log segment this Tx commits through
	readOnly bool
	rv       uint64
	writes   map[uint64]uint64 // aligned word addr -> value
	order    []uint64          // write insertion order (dedup at commit)
	rset     []readEntry
}

type readEntry struct {
	stripe uint64 // word index
	ver    uint64
}

var _ ptm.Tx = (*Tx)(nil)

func (t *Tx) reset(readOnly bool) {
	t.readOnly = readOnly
	t.rv = t.e.clock.Load()
	// Oversized maps are replaced rather than cleared: Go map buckets never
	// shrink, and iterating an emptied huge map costs O(capacity) per
	// transaction forever after.
	if len(t.writes) > 4096 {
		t.writes = make(map[uint64]uint64)
	} else {
		for k := range t.writes {
			delete(t.writes, k)
		}
	}
	t.order = t.order[:0]
	t.rset = t.rset[:0]
}

func (t *Tx) abort() { panic(abortSignal{}) }

func (t *Tx) mustWrite() {
	if t.readOnly {
		panic("redolog: mutating operation inside a read-only transaction")
	}
}

func (t *Tx) checkRange(p ptm.Ptr, n int) {
	if int(p)+n > t.e.regionSize {
		panic(fmt.Sprintf("redolog: access [%d,%d) outside region of %d bytes", p, int(p)+n, t.e.regionSize))
	}
}

// loadWord reads the aligned word at w with TL2 validation: the guarding
// stripe must be unlocked and no newer than the transaction's read version,
// before and after the data read.
func (t *Tx) loadWord(w uint64) uint64 {
	if !t.readOnly {
		if v, ok := t.writes[w]; ok {
			return v
		}
	}
	s := t.e.stripe(w)
	v1 := s.Load()
	if isLocked(v1) || version(v1) > t.rv {
		t.abort()
	}
	// Atomic: a committer may be writing this word back right now (its
	// stripe check below then fails); the torn-free load keeps that a
	// validated retry rather than a data race.
	val := t.e.dev.Load64Atomic(t.e.mainBase + int(w))
	if s.Load() != v1 {
		t.abort()
	}
	if !t.readOnly {
		t.rset = append(t.rset, readEntry{w >> 3, v1})
	}
	return val
}

// storeWord buffers a store of the aligned word at w.
func (t *Tx) storeWord(w uint64, v uint64) {
	if _, ok := t.writes[w]; !ok {
		t.order = append(t.order, w)
	}
	t.writes[w] = v
}

// Load8 implements ptm.Tx.
func (t *Tx) Load8(p ptm.Ptr) byte {
	t.checkRange(p, 1)
	w := uint64(p) &^ 7
	return byte(t.loadWord(w) >> (8 * (uint64(p) & 7)))
}

// Load16 implements ptm.Tx.
func (t *Tx) Load16(p ptm.Ptr) uint16 {
	t.checkRange(p, 2)
	return uint16(t.loadSpan(uint64(p), 2))
}

// Load32 implements ptm.Tx.
func (t *Tx) Load32(p ptm.Ptr) uint32 {
	t.checkRange(p, 4)
	return uint32(t.loadSpan(uint64(p), 4))
}

// Load64 implements ptm.Tx.
func (t *Tx) Load64(p ptm.Ptr) uint64 {
	t.checkRange(p, 8)
	return t.loadSpan(uint64(p), 8)
}

// loadSpan reads n (<= 8) bytes at p, crossing a word boundary if needed.
func (t *Tx) loadSpan(p uint64, n uint64) uint64 {
	w := p &^ 7
	shift := 8 * (p & 7)
	val := t.loadWord(w) >> shift
	if got := 8 - (p & 7); got < n {
		hi := t.loadWord(w + 8)
		val |= hi << (8 * got)
	}
	if n < 8 {
		val &= (1 << (8 * n)) - 1
	}
	return val
}

// storeSpan writes the low n bytes of v at p via read-modify-write of the
// containing word(s).
func (t *Tx) storeSpan(p uint64, v uint64, n uint64) {
	w := p &^ 7
	shift := 8 * (p & 7)
	if n == 8 && shift == 0 {
		t.storeWord(w, v)
		return
	}
	mask := ^uint64(0)
	if n < 8 {
		mask = (1 << (8 * n)) - 1
	}
	cur := t.loadWord(w)
	lowBits := 64 - shift
	t.storeWord(w, cur&^(mask<<shift)|(v&mask)<<shift)
	if 8*n > lowBits {
		cur2 := t.loadWord(w + 8)
		hiMask := mask >> lowBits
		t.storeWord(w+8, cur2&^hiMask|(v>>lowBits)&hiMask)
	}
}

// Store8 implements ptm.Tx.
func (t *Tx) Store8(p ptm.Ptr, v byte) {
	t.mustWrite()
	t.checkRange(p, 1)
	t.storeSpan(uint64(p), uint64(v), 1)
}

// Store16 implements ptm.Tx.
func (t *Tx) Store16(p ptm.Ptr, v uint16) {
	t.mustWrite()
	t.checkRange(p, 2)
	t.storeSpan(uint64(p), uint64(v), 2)
}

// Store32 implements ptm.Tx.
func (t *Tx) Store32(p ptm.Ptr, v uint32) {
	t.mustWrite()
	t.checkRange(p, 4)
	t.storeSpan(uint64(p), uint64(v), 4)
}

// Store64 implements ptm.Tx.
func (t *Tx) Store64(p ptm.Ptr, v uint64) {
	t.mustWrite()
	t.checkRange(p, 8)
	t.storeSpan(uint64(p), v, 8)
}

// LoadBytes implements ptm.Tx.
func (t *Tx) LoadBytes(p ptm.Ptr, dst []byte) {
	t.checkRange(p, len(dst))
	for i := 0; i < len(dst); {
		n := 8 - (int(p)+i)&7
		if rem := len(dst) - i; n > rem {
			n = rem
		}
		v := t.loadSpan(uint64(p)+uint64(i), uint64(n))
		for b := 0; b < n; b++ {
			dst[i+b] = byte(v >> (8 * b))
		}
		i += n
	}
}

// StoreBytes implements ptm.Tx.
func (t *Tx) StoreBytes(p ptm.Ptr, src []byte) {
	t.mustWrite()
	t.checkRange(p, len(src))
	for i := 0; i < len(src); {
		n := 8 - (int(p)+i)&7
		if rem := len(src) - i; n > rem {
			n = rem
		}
		var v uint64
		for b := 0; b < n; b++ {
			v |= uint64(src[i+b]) << (8 * b)
		}
		t.storeSpan(uint64(p)+uint64(i), v, uint64(n))
		i += n
	}
}

// Alloc implements ptm.Tx. Allocator metadata accesses flow through the
// transaction, so allocation conflicts between concurrent transactions are
// detected like any other conflict.
func (t *Tx) Alloc(n int) (ptm.Ptr, error) { return t.alloc(n, (*alloc.Heap).Alloc) }

// AllocAligned implements ptm.Tx.
func (t *Tx) AllocAligned(n int) (ptm.Ptr, error) { return t.alloc(n, (*alloc.Heap).AllocAligned) }

func (t *Tx) alloc(n int, pick func(*alloc.Heap, int) (uint64, error)) (ptm.Ptr, error) {
	t.mustWrite()
	h, err := alloc.Open(txMem{t}, heapBase)
	if err != nil {
		return 0, err
	}
	p, err := pick(h, n)
	if err != nil {
		if errors.Is(err, alloc.ErrOutOfMemory) {
			return 0, ptm.ErrOutOfMemory
		}
		return 0, err
	}
	for i := 0; i < n; i += 8 {
		t.storeWord(p+uint64(i), 0) // p is 16-aligned, so p+i stays aligned
	}
	return ptm.Ptr(p), nil
}

// Free implements ptm.Tx.
func (t *Tx) Free(p ptm.Ptr) error {
	t.mustWrite()
	h, err := alloc.Open(txMem{t}, heapBase)
	if err != nil {
		return err
	}
	if err := h.Free(uint64(p)); err != nil {
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
		panic(fmt.Sprintf("redolog: root index %d out of [0,%d)", i, ptm.NumRoots))
	}
	return ptm.Ptr(t.loadWord(uint64(rootsOff + 8*i)))
}

// SetRoot implements ptm.Tx.
func (t *Tx) SetRoot(i int, p ptm.Ptr) {
	if i < 0 || i >= ptm.NumRoots {
		panic(fmt.Sprintf("redolog: root index %d out of [0,%d)", i, ptm.NumRoots))
	}
	t.mustWrite()
	t.storeWord(uint64(rootsOff+8*i), uint64(p))
}

// txMem routes allocator metadata accesses through the transaction.
type txMem struct{ t *Tx }

func (m txMem) Load64(off uint64) uint64     { return m.t.loadWord(off &^ 7) }
func (m txMem) Store64(off uint64, v uint64) { m.t.storeWord(off&^7, v) }

// commit runs the TL2 commit protocol with persistent redo logging.
// Returns ErrTxTooLarge without committing if the write set exceeds the
// log segment; aborts (panics abortSignal) on conflict.
func (t *Tx) commit() error {
	e := t.e
	if len(t.writes) == 0 {
		return nil // read-only or no-op update: loads were validated inline
	}
	if segEntries+len(t.writes)*entrySize > e.segSize {
		return ErrTxTooLarge
	}
	// Deduplicate and sort the write set for deadlock-free locking.
	words := t.order
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })

	// Phase 1: lock every write stripe.
	locked := 0
	for _, w := range words {
		s := e.stripe(w)
		v := s.Load()
		if isLocked(v) || version(v) > t.rv || !s.CompareAndSwap(v, v|lockedBit) {
			for _, u := range words[:locked] {
				su := e.stripe(u)
				su.Store(su.Load() &^ lockedBit)
			}
			t.abort()
		}
		locked++
	}
	// Phase 2: take a commit timestamp and validate the read set. Any
	// version above rv means a concurrent commit touched the word after we
	// read it (commit timestamps always exceed rv); a stripe locked by
	// anyone but us is a concurrent committer mid-flight.
	wv := e.clock.Add(1)
	for _, r := range t.rset {
		v := e.stripes[r.stripe].Load()
		if isLocked(v) && !t.ownsStripe(r.stripe, words) {
			t.releaseLocks(words)
			t.abort()
		}
		if version(v) > t.rv {
			t.releaseLocks(words)
			t.abort()
		}
	}
	// No abort paths remain past this point, so audit markers opened here
	// are always closed. Overlapping commits dirty disjoint lines the
	// auditor cannot attribute to one claim, so markers are emitted only
	// when this commit has the device to itself.
	aud := e.aud
	audited := false
	if aud != nil {
		if e.activeCommits.Add(1) == 1 {
			audited = true
			aud.TxBegin(e.Name(), "update")
		}
		defer e.activeCommits.Add(-1)
	}
	// Phase 3: persist the redo log (fences 1 and 2). The simulated device
	// admits one mutator at a time (its pending-line state is unsynchronized),
	// so committers take turns at it; executing, locking and validating
	// transactions above stay concurrent.
	d := e.dev
	base := e.segBase(t.seg)
	e.devMu.Lock()
	d.Store64(base+segCount, uint64(len(words)))
	for i, w := range words {
		o := base + segEntries + i*entrySize
		d.Store64(o, w)
		d.Store64(o+8, t.writes[w])
		// The remaining 48 bytes model Mnemosyne's per-word log overhead
		// (Table 1: 8 words per store); the cache lines are written back
		// regardless, so leaving them zero costs the same persistence.
	}
	d.PwbRange(base, segEntries+len(words)*entrySize)
	d.Pfence()
	d.Store64(base+segCommitted, segDone)
	d.Pwb(base + segCommitted)
	d.Pfence()
	// Phase 4: write back in place (fences 3 and 4).
	for _, w := range words {
		d.Store64Atomic(e.mainBase+int(w), t.writes[w]) // readers load it unlocked
		d.Pwb(e.mainBase + int(w))
	}
	d.Pfence()
	d.Store64(base+segCommitted, 0)
	d.Pwb(base + segCommitted)
	d.Psync()
	e.devMu.Unlock()
	if audited && e.activeCommits.Load() == 1 {
		aud.DurablePoint("commit")
	}
	// Phase 5: release stripes at the new version.
	for _, w := range words {
		e.stripe(w).Store(wv << 1)
	}
	if audited {
		aud.TxEnd()
	}
	return nil
}

func (t *Tx) ownsStripe(stripe uint64, words []uint64) bool {
	w := stripe << 3
	i := sort.Search(len(words), func(i int) bool { return words[i] >= w })
	return i < len(words) && words[i] == w
}

func (t *Tx) releaseLocks(words []uint64) {
	e := t.e
	for _, w := range words {
		s := e.stripe(w)
		v := s.Load()
		if isLocked(v) {
			s.Store(v &^ lockedBit)
		}
	}
}
