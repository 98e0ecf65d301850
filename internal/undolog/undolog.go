// Package undolog implements a PMDK-style undo-log persistent transactional
// memory, the strongest baseline the Romulus paper compares against
// (libpmemobj; §2 and §6). Before each first modification of a word inside
// a transaction, the word's old value is appended to a persistent undo log
// and made durable (two fences per logged range: entry, then count); only
// then is the in-place store issued. Commit drains outstanding write-backs
// and truncates the log. Recovery applies the log backwards, restoring the
// pre-transaction state.
//
// Concurrency follows the paper's evaluation setup: PMDK has no built-in
// concurrent transactions, so accesses are guarded by a global
// reader-preference reader-writer lock (the C++ benchmark used
// std::shared_timed_mutex). Reader preference is what starves writers at
// high reader counts in Figure 7 — reproduced faithfully here.
package undolog

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// Device layout:
//
//	[ head : headSize ][ main : regionSize ][ log : logSize ]
const (
	offMagic      = 0
	offVersion    = 8
	offRegionSize = 16
	offLogSize    = 24
	offHeadSum    = 32 // checksum of the static header words
	offLogCount   = 64 // self-checked count of valid undo entries (encodeCount), own cache line
	headSize      = 256
)

const (
	magicValue    = 0x504D444B554E444F // "PMDKUNDO"
	layoutVersion = 3
)

// Main-region layout mirrors the Romulus engines: reserved line, roots,
// heap — so the same data-structure code runs unchanged on this engine.
const (
	rootsOff = 64
	heapBase = rootsOff + ptm.NumRoots*8
)

// Config tunes the engine.
type Config struct {
	// Model is the persistence model for freshly created devices.
	Model pmem.Model
	// LogSize is the undo-log capacity in bytes (default 1 MiB). A
	// transaction whose log outgrows it fails with ErrLogFull.
	LogSize int
	// Audit, when non-nil, receives the engine's durability-protocol
	// markers (ptm.Auditor).
	Audit ptm.Auditor
}

// ErrLogFull is returned when a transaction overflows the undo log.
var ErrLogFull = errors.New("undolog: transaction exceeds undo log capacity")

// ErrCorruptHeader aliases the repository-wide typed error returned
// (wrapped) by Open when the header magic is intact but the checksum over
// the static header words fails — torn head metadata.
var ErrCorruptHeader = ptm.ErrCorruptHeader

// ErrCorruptLog aliases the typed error returned (wrapped) by Open when the
// undo log's structure is invalid (entries running off the log region or
// addressing bytes outside main); applying it would corrupt the heap.
var ErrCorruptLog = ptm.ErrCorruptLog

// headerChecksum covers the static header words written once at format.
func headerChecksum(version, regionSize, logSize uint64) uint64 {
	return ptm.HeaderChecksum(magicValue, version, regionSize, logSize)
}

// The log-count word is the engine's single linchpin: recovery replays
// exactly count entries, so a rotted count silently replays stale log bytes
// over committed data. The word is therefore self-checking: the count lives
// in the low 32 bits and a hash of it in the high 32. encodeCount(0) == 0,
// so a freshly formatted (all-zero) word and the commit-time truncation both
// stay plain zeroes — and RecoveryPending's nonzero test keeps working. The
// word is written with atomic 8-byte stores (never torn, per the paper's
// word-atomicity assumption), so only at-rest rot can break the pairing.

func countMix(n uint64) uint64 {
	x := (n + 1) * 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	return x >> 32
}

func encodeCount(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return n&0xFFFFFFFF | countMix(n&0xFFFFFFFF)<<32
}

func decodeCount(w uint64) (uint64, bool) {
	if w == 0 {
		return 0, true
	}
	n := w & 0xFFFFFFFF
	if w>>32 != countMix(n) {
		return 0, false
	}
	return n, true
}

const defaultLogSize = 1 << 20

// Engine is the undo-log PTM. It implements ptm.PTM.
type Engine struct {
	dev        *pmem.Device
	mainBase   int
	logBase    int
	regionSize int
	logSize    int
	heap       *alloc.Heap

	wmu sync.Mutex // serializes writers (the "W" side of the global lock)
	rw  prefLock   // reader-preference reader-writer lock

	wtx Tx // single writer transaction, reused

	updates atomic.Uint64
	reads   atomic.Uint64

	// aud receives durability-protocol markers when non-nil. Set at Open
	// (Config.Audit) or at a quiescent point (SetAuditor).
	aud ptm.Auditor
}

var _ ptm.PTM = (*Engine)(nil)

// minRegionSize is the smallest usable main-region size.
const minRegionSize = heapBase + alloc.MinSize

// New creates and formats a fresh engine with the given main-region size.
func New(regionSize int, cfg Config) (*Engine, error) {
	if cfg.LogSize == 0 {
		cfg.LogSize = defaultLogSize
	}
	if regionSize < minRegionSize {
		return nil, fmt.Errorf("undolog: region size %d below minimum %d", regionSize, minRegionSize)
	}
	regionSize = ptm.Align(regionSize, pmem.LineSize)
	cfg.LogSize = ptm.Align(cfg.LogSize, pmem.LineSize)
	dev := pmem.New(headSize+regionSize+cfg.LogSize, cfg.Model)
	return Open(dev, cfg)
}

// Open attaches to a device, formatting a blank one and recovering a used
// one (rolling back any in-flight transaction recorded in the log).
func Open(dev *pmem.Device, cfg Config) (*Engine, error) {
	if cfg.LogSize == 0 {
		cfg.LogSize = defaultLogSize
	}
	cfg.LogSize = ptm.Align(cfg.LogSize, pmem.LineSize)
	regionSize := dev.Size() - headSize - cfg.LogSize
	if regionSize < minRegionSize {
		return nil, fmt.Errorf("undolog: device too small for region+log")
	}
	e := &Engine{
		dev:        dev,
		mainBase:   headSize,
		logBase:    headSize + regionSize,
		regionSize: regionSize,
		logSize:    cfg.LogSize,
	}
	e.wtx = Tx{e: e, logged: make(map[uint64]bool)}
	e.aud = cfg.Audit
	openTrips := dev.FaultsTripped()
	if dev.Load64(offMagic) != magicValue {
		// A NONZERO wrong magic with a header checksum that validates against
		// the true magic constant is a rotted magic word, not a blank device;
		// reformatting would silently discard the region. Magic zero stays
		// "unformatted" — a crash mid-format can leave a durable checksum
		// before the magic publish, and rot never zeroes the whole word.
		if sum := dev.Load64(offHeadSum); dev.Load64(offMagic) != 0 && sum != 0 &&
			sum == headerChecksum(dev.Load64(offVersion), dev.Load64(offRegionSize), dev.Load64(offLogSize)) {
			return nil, fmt.Errorf("undolog: magic %#x but header checksum matches a formatted region: %w",
				dev.Load64(offMagic), ErrCorruptHeader)
		}
		if a := e.aud; a != nil {
			a.TxBegin(e.Name(), "format")
		}
		if err := e.format(); err != nil {
			if a := e.aud; a != nil {
				a.TxEnd()
			}
			return nil, err
		}
		if a := e.aud; a != nil {
			a.DurablePoint("format")
			a.TxEnd()
		}
	} else {
		if sum := headerChecksum(dev.Load64(offVersion), dev.Load64(offRegionSize), dev.Load64(offLogSize)); dev.Load64(offHeadSum) != sum {
			return nil, fmt.Errorf("undolog: header checksum %#x, computed %#x: %w",
				dev.Load64(offHeadSum), sum, ErrCorruptHeader)
		}
		if got := dev.Load64(offVersion); got != layoutVersion {
			return nil, fmt.Errorf("undolog: layout version %d, want %d", got, layoutVersion)
		}
		if got := dev.Load64(offRegionSize); got != uint64(regionSize) {
			return nil, fmt.Errorf("undolog: header region size %d, device implies %d", got, regionSize)
		}
		if a := e.aud; a != nil {
			a.TxBegin(e.Name(), "recovery")
		}
		if err := e.recover(); err != nil {
			if a := e.aud; a != nil {
				a.TxEnd()
			}
			return nil, err
		}
		if a := e.aud; a != nil {
			a.DurablePoint("recovery")
			a.TxEnd()
		}
	}
	if dev.FaultsTripped() != openTrips {
		return nil, fmt.Errorf("undolog: media fault during open: %w", dev.FaultError())
	}
	heap, err := alloc.Open((*heapMem)(e), heapBase)
	if err != nil {
		return nil, fmt.Errorf("undolog: opening allocator: %w", err)
	}
	e.heap = heap
	return e, nil
}

func (e *Engine) format() error {
	d := e.dev
	d.Store64(offVersion, layoutVersion)
	d.Store64(offRegionSize, uint64(e.regionSize))
	d.Store64(offLogSize, uint64(e.logSize))
	d.Store64(offHeadSum, headerChecksum(layoutVersion, uint64(e.regionSize), uint64(e.logSize)))
	d.Store64(offLogCount, 0)
	if _, err := alloc.Format((*rawMem)(e), heapBase, uint64(e.regionSize-heapBase)); err != nil {
		return fmt.Errorf("undolog: formatting heap: %w", err)
	}
	wm := e.rawHeapTop()
	d.PwbRange(0, headSize)
	d.PwbRange(e.mainBase, int(wm))
	d.Pfence()
	d.Store64(offMagic, magicValue)
	d.Pwb(offMagic)
	d.Pfence()
	return nil
}

func (e *Engine) rawHeapTop() uint64 {
	h, err := alloc.Open((*rawMem)(e), heapBase)
	if err != nil {
		panic(fmt.Sprintf("undolog: heap vanished after format: %v", err))
	}
	return h.Top()
}

// recover rolls back an interrupted transaction by applying the undo log in
// reverse, then truncates the log. Every entry is bounds-checked before
// anything is applied: the entry count and each (addr, len) pair come from
// the media, and blindly trusting a corrupted value would scribble outside
// main or walk off the log region. Structural damage aborts recovery with
// ErrCorruptLog instead.
func (e *Engine) recover() error {
	d := e.dev
	raw, ok := decodeCount(d.Load64(offLogCount))
	if !ok {
		return fmt.Errorf("undolog: log count word %#x fails its self-check (rotted count): %w",
			d.Load64(offLogCount), ErrCorruptLog)
	}
	count := int(raw)
	if count == 0 {
		return nil
	}
	// An entry occupies at least 16 bytes, so the log bounds the count.
	if count < 0 || count > e.logSize/16 {
		return fmt.Errorf("undolog: log count %d exceeds capacity of %d-byte log: %w",
			count, e.logSize, ErrCorruptLog)
	}
	// Walk forward to find and validate entry offsets, then apply in
	// reverse.
	offs := make([]int, 0, count)
	off := e.logBase
	logEnd := e.logBase + e.logSize
	for i := 0; i < count; i++ {
		if off+16 > logEnd {
			return fmt.Errorf("undolog: entry %d/%d starts past log end: %w", i, count, ErrCorruptLog)
		}
		addr := d.Load64(off)
		n := d.Load64(off + 8)
		if n > uint64(e.logSize) || off+16+ptm.Align(int(n), 8) > logEnd {
			return fmt.Errorf("undolog: entry %d/%d length %d runs off the log: %w", i, count, n, ErrCorruptLog)
		}
		if addr+n > uint64(e.regionSize) {
			return fmt.Errorf("undolog: entry %d/%d addresses [%d,%d) outside main region of %d bytes: %w",
				i, count, addr, addr+n, e.regionSize, ErrCorruptLog)
		}
		offs = append(offs, off)
		off += 16 + ptm.Align(int(n), 8)
	}
	for i := count - 1; i >= 0; i-- {
		o := offs[i]
		addr := int(d.Load64(o))
		n := int(d.Load64(o + 8))
		d.CopyWithin(e.mainBase+addr, o+16, n)
		d.PwbRange(e.mainBase+addr, n)
	}
	d.Pfence()
	d.Store64(offLogCount, 0)
	d.Pwb(offLogCount)
	d.Pfence()
	return nil
}

// RecoveryPending reports whether opening a device with these media
// contents would perform actual recovery work (a non-empty undo log).
func RecoveryPending(img []byte) bool {
	if len(img) < headSize {
		return false
	}
	load := func(off int) uint64 {
		var v uint64
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(img[off+i])
		}
		return v
	}
	return load(offMagic) == magicValue && load(offLogCount) != 0
}

// beginTx prepares the writer transaction. Caller holds the writer lock.
func (e *Engine) beginTx() *Tx {
	t := &e.wtx
	t.logTail = e.logBase
	t.failed = nil
	// Go maps never shrink their bucket arrays: after one huge transaction
	// (e.g. a hash-map resize), even an emptied map costs O(capacity) to
	// iterate. Replace oversized maps instead of clearing them.
	if len(t.logged) > 4096 {
		t.logged = make(map[uint64]bool)
	} else {
		for k := range t.logged {
			delete(t.logged, k)
		}
	}
	return t
}

// commitTx: make all in-place stores durable, then truncate the log. Fences
// with nothing queued (an empty transaction, or an ordered-pwb model) are
// provably no-ops and skipped; safe here because the writer lock makes this
// engine single-mutator.
func (e *Engine) commitTx() {
	d := e.dev
	if d.NeedsFence() {
		d.Pfence() // drain data write-backs
	}
	d.Store64(offLogCount, 0)
	d.Pwb(offLogCount)
	if d.NeedsFence() {
		d.Psync()
	}
	if a := e.aud; a != nil {
		a.DurablePoint("commit")
	}
}

// rollbackTx restores pre-transaction state from the undo log (same code
// path recovery uses). In-process the log was just written by this
// transaction, so a structural error is an engine invariant violation, not
// media damage.
func (e *Engine) rollbackTx() {
	if err := e.recover(); err != nil {
		panic(fmt.Sprintf("undolog: rollback of freshly written log failed: %v", err))
	}
}

// Name implements ptm.PTM. The engine reports as "pmdk", its role in the
// paper's evaluation.
func (e *Engine) Name() string { return "pmdk" }

// Stats implements ptm.PTM.
func (e *Engine) Stats() ptm.TxStats {
	return ptm.TxStats{
		UpdateTxs: e.updates.Load(),
		ReadTxs:   e.reads.Load(),
	}
}

// Device exposes the underlying device for statistics and crash testing.
func (e *Engine) Device() *pmem.Device { return e.dev }

// DataOffsets returns the device offsets of user heap address 0 — a single
// element, since the undo-log engine keeps one copy of the data. Fault-
// injection harnesses use it to address user data on the raw device.
func (e *Engine) DataOffsets() []int { return []int{e.mainBase} }

// CheckHeap validates allocator invariants; used by recovery tests.
func (e *Engine) CheckHeap() error { return e.heap.CheckInvariants() }

// SetAuditor installs (or, with nil, removes) the durability auditor. Call
// at a quiescent point; protocol work done earlier is simply unaudited.
func (e *Engine) SetAuditor(a ptm.Auditor) { e.aud = a }

// Close implements ptm.PTM.
func (e *Engine) Close() error {
	if a := e.aud; a != nil {
		a.EngineClose(e.Name())
	}
	return nil
}

// Update implements ptm.PTM.
func (e *Engine) Update(fn func(ptm.Tx) error) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	e.rw.writerLock()
	defer e.rw.writerUnlock()
	if a := e.aud; a != nil {
		a.TxBegin(e.Name(), "update")
		defer a.TxEnd()
	}
	t := e.beginTx()
	committed := false
	defer func() {
		if !committed {
			e.rollbackTx()
		}
	}()
	trips := e.dev.FaultsTripped()
	err := fn(t)
	if e.dev.FaultsTripped() != trips {
		// fn computed on corrupted loads; roll back (deferred) instead of
		// committing fault-tainted state. The fault takes precedence over
		// fn's own error, which corrupted loads may have fabricated.
		return e.dev.FaultError()
	}
	if err != nil {
		return err
	}
	if t.failed != nil {
		return t.failed
	}
	e.commitTx()
	committed = true
	e.updates.Add(1)
	return nil
}

// Read implements ptm.PTM.
func (e *Engine) Read(fn func(ptm.Tx) error) error {
	e.rw.readerLock()
	defer e.rw.readerUnlock()
	e.reads.Add(1)
	t := Tx{e: e, readOnly: true}
	trips := e.dev.FaultsTripped()
	err := fn(&t)
	if e.dev.FaultsTripped() != trips {
		err = e.dev.FaultError()
	}
	return err
}

// prefLock is a reader-preference reader-writer lock: readers never check
// for *waiting* writers, only *active* ones, so a steady stream of readers
// starves writers — the behaviour the paper observed when wrapping PMDK in
// std::shared_timed_mutex (Figure 7).
type prefLock struct {
	readers      atomic.Int64
	writerActive atomic.Bool
}

func (l *prefLock) readerLock() {
	for {
		l.readers.Add(1)
		if !l.writerActive.Load() {
			return
		}
		l.readers.Add(-1)
		for spins := 0; l.writerActive.Load(); spins++ {
			if spins > 16 {
				runtime.Gosched()
			}
		}
	}
}

func (l *prefLock) readerUnlock() { l.readers.Add(-1) }

// writerLock is called with the writer-writer mutex held.
func (l *prefLock) writerLock() {
	for spins := 0; ; spins++ {
		if l.readers.Load() == 0 {
			l.writerActive.Store(true)
			if l.readers.Load() == 0 {
				return
			}
			// A reader slipped in between the check and the flag; it will
			// observe the flag and depart. Retract and retry.
			l.writerActive.Store(false)
		}
		if spins > 16 {
			runtime.Gosched()
		}
	}
}

func (l *prefLock) writerUnlock() { l.writerActive.Store(false) }

// rawMem adapts the device for allocator formatting (plain stores).
type rawMem Engine

func (m *rawMem) Load64(off uint64) uint64 {
	e := (*Engine)(m)
	return e.dev.Load64(e.mainBase + int(off))
}

func (m *rawMem) Store64(off uint64, v uint64) {
	e := (*Engine)(m)
	e.dev.Store64(e.mainBase+int(off), v)
}

// heapMem routes allocator accesses through the writer transaction so that
// metadata mutations are undo-logged like user data.
type heapMem Engine

func (m *heapMem) Load64(off uint64) uint64 {
	e := (*Engine)(m)
	return e.dev.Load64(e.mainBase + int(off))
}

func (m *heapMem) Store64(off uint64, v uint64) {
	e := (*Engine)(m)
	e.wtx.Store64(ptm.Ptr(off), v)
}
