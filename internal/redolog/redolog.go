// Package redolog implements a Mnemosyne-style persistent transactional
// memory: a word-granularity software transactional memory (TL2-flavoured,
// standing in for TinySTM) combined with a persistent redo log, as
// described for Mnemosyne in §2 of the Romulus paper.
//
// Characteristics reproduced from the paper's comparison (Table 1, §6):
//
//   - loads AND stores are interposed: every load must first check the
//     transaction's write set, which grows costlier with transaction size;
//   - each stored word consumes 8 words of persistent log (entry plus
//     metadata/padding), giving 300–600% write amplification;
//   - a transaction needs 4 persistence fences at minimum, and more under
//     contention because aborted commit attempts repeat log work;
//   - transactions on disjoint data run concurrently (fine-grained
//     stripes), but conflicts — such as every update hitting a shared
//     element counter in a resizable hash map — cause aborts and retries,
//     the scalability collapse of Figure 4/5.
//
// Like the real Mnemosyne (paper footnote 2), very large transactions are
// rejected rather than supported: a write set that outgrows its log
// segment fails with ErrTxTooLarge.
package redolog

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
//	[ head : headSize ][ main : regionSize ][ seg 0 ][ seg 1 ] ...
//
// Each log segment belongs to one committing transaction at a time:
//
//	+0  committed flag   +8  word count   +16 entries (64 B each)
const (
	offMagic      = 0
	offVersion    = 8
	offRegionSize = 16
	offSegSize    = 24
	offNumSegs    = 32
	offHeadSum    = 40 // checksum of the static header words
	headSize      = 256

	segCommitted = 0
	segCount     = 8
	segEntries   = 16
	entrySize    = 64 // 8 words per stored word, per the paper's Table 1
)

const (
	magicValue    = 0x4D4E454D4F53594E // "MNEMOSYN"
	layoutVersion = 3

	// segDone marks a segment whose committed flag has a distinguished
	// constant rather than a bare 1: recovery replays exactly the segments
	// flagged committed, so the flag word must be self-evidencing. 0 is
	// empty, segDone is committed, and anything else is rot — replaying a
	// segment on the strength of a rotted flag would scribble stale log
	// words over committed data, so recovery refuses instead. The flag is
	// written with atomic 8-byte stores and never torn.
	segDone = 0x5245444F4C4F4731 // "REDOLOG1"
)

// Main-region layout matches the other engines so data structures are
// engine-agnostic.
const (
	rootsOff = 64
	heapBase = rootsOff + ptm.NumRoots*8
)

// ErrTxTooLarge is returned when a transaction's write set exceeds a log
// segment.
var ErrTxTooLarge = errors.New("redolog: transaction write set exceeds log segment")

// ErrCorruptHeader aliases the repository-wide typed error returned
// (wrapped) by Open when the header magic is intact but the checksum over
// the static header words fails — torn head metadata.
var ErrCorruptHeader = ptm.ErrCorruptHeader

// ErrCorruptLog aliases the typed error returned (wrapped) by Open when a
// committed redo-log segment is structurally invalid; replaying it would
// corrupt the heap.
var ErrCorruptLog = ptm.ErrCorruptLog

// headerChecksum covers the static header words written once at format.
func headerChecksum(version, regionSize, segSize, numSegs uint64) uint64 {
	return ptm.HeaderChecksum(magicValue, version, regionSize, segSize, numSegs)
}

// Config tunes the engine.
type Config struct {
	// Model is the persistence model for freshly created devices.
	Model pmem.Model
	// SegmentSize is the per-transaction redo-log capacity in bytes
	// (default 256 KiB, i.e. 4K stored words).
	SegmentSize int
	// Segments is the number of concurrent commit logs (default 8).
	Segments int
	// Audit, when non-nil, receives the engine's durability-protocol
	// markers (ptm.Auditor). Because commits run concurrently, the engine
	// only emits TxBegin/DurablePoint when a commit is the sole one in
	// flight; overlapping commits are counted but not individually audited.
	Audit ptm.Auditor
}

const (
	defaultSegSize  = 256 << 10
	defaultSegments = 8
)

// Engine is the redo-log STM PTM. It implements ptm.PTM.
type Engine struct {
	dev        *pmem.Device
	mainBase   int
	logBase    int
	regionSize int
	segSize    int
	numSegs    int
	heap       *alloc.Heap

	clock   atomic.Uint64
	stripes []atomic.Uint64 // one versioned lock per 8-byte word
	segMu   []sync.Mutex
	devMu   sync.Mutex // serializes commits' stores, write-backs and fences on dev
	// txs pools transactions with their write maps. A Tx is given its log
	// segment round-robin when it is created (segs counts them), so
	// concurrent committers spread over the segments. A pooled Tx holds no
	// engine, and the pool is allocated apart from the engine: the runtime
	// holds a used sync.Pool until the second collection after its last
	// use, and must not hold the engine and its device with it.
	txs  *sync.Pool
	segs atomic.Uint32

	updates atomic.Uint64
	readTxs atomic.Uint64
	aborts  atomic.Uint64

	// aud receives durability-protocol markers when non-nil; activeCommits
	// tracks overlapping commits so audit markers are only emitted for
	// commits with the device to themselves.
	aud           ptm.Auditor
	activeCommits atomic.Int32
}

var _ ptm.PTM = (*Engine)(nil)

// MinRegionSize is the smallest usable main-region size.
const MinRegionSize = heapBase + alloc.MinSize

// New creates and formats a fresh engine.
func New(regionSize int, cfg Config) (*Engine, error) {
	applyDefaults(&cfg)
	if regionSize < MinRegionSize {
		return nil, fmt.Errorf("redolog: region size %d below minimum %d", regionSize, MinRegionSize)
	}
	regionSize = ptm.Align(regionSize, pmem.LineSize)
	dev := pmem.New(headSize+regionSize+cfg.Segments*cfg.SegmentSize, cfg.Model)
	return Open(dev, cfg)
}

func applyDefaults(cfg *Config) {
	if cfg.SegmentSize == 0 {
		cfg.SegmentSize = defaultSegSize
	}
	cfg.SegmentSize = ptm.Align(cfg.SegmentSize, pmem.LineSize)
	if cfg.Segments == 0 {
		cfg.Segments = defaultSegments
	}
}

// Open attaches to a device, formatting a blank one and replaying any
// committed-but-unapplied redo logs otherwise.
func Open(dev *pmem.Device, cfg Config) (*Engine, error) {
	applyDefaults(&cfg)
	regionSize := dev.Size() - headSize - cfg.Segments*cfg.SegmentSize
	if regionSize < MinRegionSize {
		return nil, fmt.Errorf("redolog: device too small for region and %d log segments", cfg.Segments)
	}
	e := &Engine{
		dev:        dev,
		mainBase:   headSize,
		logBase:    headSize + regionSize,
		regionSize: regionSize,
		segSize:    cfg.SegmentSize,
		numSegs:    cfg.Segments,
		stripes:    make([]atomic.Uint64, regionSize/8),
		segMu:      make([]sync.Mutex, cfg.Segments),
		txs:        new(sync.Pool),
	}
	e.aud = cfg.Audit
	openTrips := dev.FaultsTripped()
	if dev.Load64(offMagic) != magicValue {
		// A NONZERO wrong magic with a header checksum validating against the
		// true magic constant is a rotted magic word, not a blank device.
		// Magic zero stays "unformatted" — a crash mid-format can leave a
		// durable checksum before the magic publish.
		if sum := dev.Load64(offHeadSum); dev.Load64(offMagic) != 0 && sum != 0 &&
			sum == headerChecksum(dev.Load64(offVersion), dev.Load64(offRegionSize),
				dev.Load64(offSegSize), dev.Load64(offNumSegs)) {
			return nil, fmt.Errorf("redolog: magic %#x but header checksum matches a formatted region: %w",
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
		if sum := headerChecksum(dev.Load64(offVersion), dev.Load64(offRegionSize),
			dev.Load64(offSegSize), dev.Load64(offNumSegs)); dev.Load64(offHeadSum) != sum {
			return nil, fmt.Errorf("redolog: header checksum %#x, computed %#x: %w",
				dev.Load64(offHeadSum), sum, ErrCorruptHeader)
		}
		if got := dev.Load64(offVersion); got != layoutVersion {
			return nil, fmt.Errorf("redolog: layout version %d, want %d", got, layoutVersion)
		}
		if got := dev.Load64(offRegionSize); got != uint64(regionSize) {
			return nil, fmt.Errorf("redolog: header region size %d, device implies %d", got, regionSize)
		}
		if got := dev.Load64(offSegSize); got != uint64(cfg.SegmentSize) {
			return nil, fmt.Errorf("redolog: header segment size %d, config says %d", got, cfg.SegmentSize)
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
		return nil, fmt.Errorf("redolog: media fault during open: %w", dev.FaultError())
	}
	heap, err := alloc.Open(rawMem{e}, heapBase)
	if err != nil {
		return nil, fmt.Errorf("redolog: opening allocator: %w", err)
	}
	e.heap = heap
	return e, nil
}

func (e *Engine) format() error {
	d := e.dev
	d.Store64(offVersion, layoutVersion)
	d.Store64(offRegionSize, uint64(e.regionSize))
	d.Store64(offSegSize, uint64(e.segSize))
	d.Store64(offNumSegs, uint64(e.numSegs))
	d.Store64(offHeadSum, headerChecksum(layoutVersion, uint64(e.regionSize), uint64(e.segSize), uint64(e.numSegs)))
	for s := 0; s < e.numSegs; s++ {
		d.Store64(e.segBase(s)+segCommitted, 0)
	}
	if _, err := alloc.Format(rawMem{e}, heapBase, uint64(e.regionSize-heapBase)); err != nil {
		return fmt.Errorf("redolog: formatting heap: %w", err)
	}
	top := int(mustHeapTop(e))
	d.PwbRange(0, headSize)
	d.PwbRange(e.mainBase, top)
	for s := 0; s < e.numSegs; s++ {
		d.Pwb(e.segBase(s) + segCommitted)
	}
	d.Pfence()
	d.Store64(offMagic, magicValue)
	d.Pwb(offMagic)
	d.Pfence()
	return nil
}

func mustHeapTop(e *Engine) uint64 {
	h, err := alloc.Open(rawMem{e}, heapBase)
	if err != nil {
		panic(fmt.Sprintf("redolog: heap vanished after format: %v", err))
	}
	return h.Top()
}

func (e *Engine) segBase(s int) int { return e.logBase + s*e.segSize }

// recover replays every committed redo-log segment: the logged values are
// the transaction's durable effects; re-applying them is idempotent. A
// committed segment whose count or entry addresses fall outside the region
// cannot have been written by commit — replaying it would corrupt the heap,
// so recovery refuses with ErrCorruptLog instead.
func (e *Engine) recover() error {
	d := e.dev
	maxEntries := (e.segSize - segEntries) / entrySize
	for s := 0; s < e.numSegs; s++ {
		base := e.segBase(s)
		flag := d.Load64(base + segCommitted)
		if flag == 0 {
			continue
		}
		if flag != segDone {
			return fmt.Errorf("redolog: segment %d committed flag %#x is neither empty nor committed (rotted flag): %w",
				s, flag, ErrCorruptLog)
		}
		n := int(d.Load64(base + segCount))
		if n < 0 || n > maxEntries {
			return fmt.Errorf("redolog: segment %d committed with %d entries, capacity %d: %w",
				s, n, maxEntries, ErrCorruptLog)
		}
		for i := 0; i < n; i++ {
			o := base + segEntries + i*entrySize
			addr := int(d.Load64(o))
			if addr < 0 || addr+8 > e.regionSize {
				return fmt.Errorf("redolog: segment %d entry %d targets offset %d beyond region %d: %w",
					s, i, addr, e.regionSize, ErrCorruptLog)
			}
			val := d.Load64(o + 8)
			d.Store64(e.mainBase+addr, val)
			d.Pwb(e.mainBase + addr)
		}
		d.Pfence()
		d.Store64(base+segCommitted, 0)
		d.Pwb(base + segCommitted)
		d.Pfence()
	}
	return nil
}

// RecoveryPending reports whether reopening a device with the given raw
// image (as produced by pmem.Device.CrashImage) would have to replay at
// least one committed redo-log segment. cfg must match the configuration
// the image was created with.
func RecoveryPending(img []byte, cfg Config) bool {
	applyDefaults(&cfg)
	load := func(off int) uint64 {
		if off < 0 || off+8 > len(img) {
			return 0
		}
		var v uint64
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(img[off+i])
		}
		return v
	}
	if load(offMagic) != magicValue {
		return false
	}
	regionSize := len(img) - headSize - cfg.Segments*cfg.SegmentSize
	if regionSize < MinRegionSize {
		return false
	}
	logBase := headSize + regionSize
	for s := 0; s < cfg.Segments; s++ {
		if load(logBase+s*cfg.SegmentSize+segCommitted) != 0 {
			return true
		}
	}
	return false
}

// stripe returns the versioned lock guarding the aligned word at w.
func (e *Engine) stripe(w uint64) *atomic.Uint64 { return &e.stripes[w>>3] }

const lockedBit = 1

func version(v uint64) uint64 { return v >> 1 }
func isLocked(v uint64) bool  { return v&lockedBit != 0 }

// Name implements ptm.PTM. The engine reports as "mne", its role in the
// paper's evaluation.
func (e *Engine) Name() string { return "mne" }

// Stats implements ptm.PTM.
func (e *Engine) Stats() ptm.TxStats {
	return ptm.TxStats{
		UpdateTxs: e.updates.Load(),
		ReadTxs:   e.readTxs.Load(),
		Aborts:    e.aborts.Load(),
	}
}

// Device exposes the underlying device for statistics and crash testing.
func (e *Engine) Device() *pmem.Device { return e.dev }

// DataOffsets returns the device offsets of user heap address 0 — a single
// element, since the redo-log engine keeps one copy of the data. Fault-
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

// rawMem gives the allocator direct access during format/validation; at
// runtime allocator calls flow through transactions instead (txMem).
type rawMem struct{ e *Engine }

func (m rawMem) Load64(off uint64) uint64     { return m.e.dev.Load64(m.e.mainBase + int(off)) }
func (m rawMem) Store64(off uint64, v uint64) { m.e.dev.Store64(m.e.mainBase+int(off), v) }

// backoff yields with quadratic growth after aborts.
func backoff(attempt int) {
	if attempt < 2 {
		return
	}
	spins := attempt * attempt
	if spins > 64 {
		spins = 64
	}
	for i := 0; i < spins; i++ {
		runtime.Gosched()
	}
}
