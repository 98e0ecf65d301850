package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/crwwp"
	"repro/internal/flatcombine"
	"repro/internal/hsync"
	"repro/internal/leftright"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// Variant selects which of the three Romulus algorithms an engine runs.
// The zero value selects RomLog, the paper's flagship configuration.
type Variant int

const (
	// VariantDefault resolves to RomLog.
	VariantDefault Variant = iota
	// Rom is the basic algorithm: no range log, C-RW-WP plus flat combining
	// for concurrency. Replication copies the round's dirty cache lines
	// (tracked by a DRAM dirty set; Config.FullReplicate restores the
	// paper's original full-watermark copy as an ablation).
	Rom
	// RomLog adds the volatile redo log: only modified ranges replicate.
	RomLog
	// RomLR is RomLog with Left-Right synchronization: wait-free readers.
	RomLR
)

// String returns the short engine name used in benchmark output.
func (v Variant) String() string {
	switch v {
	case Rom:
		return "rom"
	case VariantDefault, RomLog:
		return "romlog"
	case RomLR:
		return "romlr"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Config tunes an engine. The zero value gives the paper's defaults.
type Config struct {
	// Variant selects the algorithm (Rom, RomLog or RomLR).
	Variant Variant
	// Model is the persistence model for freshly created devices (New).
	Model pmem.Model
	// DisableLogMerge turns off in-place extension of the last log entry
	// (ablation; compaction at commit still runs).
	DisableLogMerge bool
	// DeferPwb delays per-store write-backs to commit time, issuing one pwb
	// per modified cache line from the compacted log instead of one per
	// store (ablation; log variants only).
	DeferPwb bool
	// EagerPwb restores the pre-batching flush discipline: one pwb issued
	// inline with every store, re-flushing lines already queued (ablation;
	// the default is a deduplicated per-batch flush set that write-backs
	// each dirty line exactly once before the commit fence).
	EagerPwb bool
	// FullReplicate restores the paper's whole-prefix copies at commit and
	// at recovery (ablation). At commit — Rom only, the log variants already
	// replicate logged ranges — replicate and rollback copy the entire
	// watermark prefix instead of the round's dirty cache lines; at recovery,
	// every variant copies and writes back the whole prefix instead of only
	// the lines the crash left different. The equivalence property tests and
	// the §4.7 replication-volume and §6.5 recovery contrasts measure against it.
	FullReplicate bool
	// DisableFlatCombining serializes writers on the combiner's writer lock
	// through its direct entry, with no announcement and so no aggregation
	// (ablation).
	DisableFlatCombining bool
	// DisableOpenVerify skips the quiescent twin-copy comparison at Open
	// (ablation). The media-fault campaign uses it as its deliberately
	// unhardened fixture: with the check off, at-rest corruption of one copy
	// is served silently, proving the campaign detects what the check exists
	// to catch.
	DisableOpenVerify bool
	// Audit, when non-nil, receives the engine's durability-protocol
	// markers: TxBegin/TxEnd around each update transaction, format and
	// recovery, and DurablePoint at every commit-marker psync.
	Audit ptm.Auditor
	// ReserveTail reserves this many bytes (line-aligned up) at the tail of
	// a freshly created device, past both region copies, for a caller-owned
	// structure — the shard layer's flight recorder lives there. Only New
	// consults it: on reopen the header's recorded region size governs the
	// layout, so the tail is implicitly whatever the device holds past the
	// copies (ReservedTail reports it).
	ReserveTail int
}

// Engine is a Romulus persistent transactional memory over a simulated
// persistent-memory device. It implements ptm.PTM.
type Engine struct {
	dev        *pmem.Device
	cfg        Config
	mainBase   int
	backBase   int
	regionSize int
	heap       *alloc.Heap

	reg     hsync.Registry
	comb    *flatcombine.Combiner[*Tx]
	hooks   flatcombine.Hooks[*Tx]
	rw      crwwp.Lock   // Rom, RomLog
	lr      leftright.LR // RomLR
	wtx     Tx           // the single writer transaction, reused
	handles chan *Handle // pool for the convenience Update/Read API

	// fset collects the dirty lines of the current batch for one
	// deduplicated write-back burst at commit. Only the single writer (the
	// combiner) touches it, like wtx.
	fset *pmem.FlushSet

	// dirty tracks the round's modified cache lines when the range log is
	// disabled (basic Rom without the FullReplicate ablation), so
	// replication copies O(dirty) bytes instead of the whole watermark
	// prefix. Dirty extents accumulate across a flat-combined batch and
	// drain once per durability round, like fset. Only the single writer
	// touches it.
	dirty dirtySet

	updates   atomic.Uint64
	reads     atomic.Uint64
	rollbacks atomic.Uint64
	// replBytes and replExtents count bytes and contiguous ranges copied
	// between the twin copies at replication and rollback — the
	// write-amplification measure behind ptm_replicate_bytes_total.
	replBytes   atomic.Uint64
	replExtents atomic.Uint64

	// pwbHist records pwbs issued per update transaction (§6.2's analysis
	// tool). Only the single writer observes into it.
	pwbHist    obs.Histogram
	txStartPwb uint64

	// wmBumped marks the current round as having raised the persistent
	// watermark, so rollback knows whether the flush-set drop lost a
	// watermark write-back that must be reissued. Single-writer, like wtx.
	wmBumped bool

	// trace receives one obs.TxEvent per transaction when non-nil. Set only
	// at quiescent points (SetTrace); txStartFence is the fence-count
	// baseline taken at beginTx, touched only by the single writer.
	trace        obs.Sink
	txStartFence uint64

	// aud receives durability-protocol markers when non-nil. Set at Open
	// (Config.Audit) or at a quiescent point (SetAuditor).
	aud ptm.Auditor

	// rec is what this engine's Open found and repaired; fixed after Open.
	rec ptm.RecoveryStats
}

var _ ptm.PTM = (*Engine)(nil)

// ErrRegionMismatch is returned by Open when the device does not match the
// recorded layout.
var ErrRegionMismatch = errors.New("core: device layout does not match persistent header")

// ErrCorruptHeader is returned (wrapped) by Open when the header's magic is
// present but its checksum does not cover the stored words — torn head
// metadata. It aliases the repository-wide typed error so callers can match
// it across engines.
var ErrCorruptHeader = ptm.ErrCorruptHeader

// ErrCorruptPayload aliases the typed error returned (wrapped) by Open when
// the twin copies diverge at a quiescent (IDL) open — at-rest corruption of
// one copy, which recovery must refuse to serve rather than guess through.
var ErrCorruptPayload = ptm.ErrCorruptPayload

// headerChecksum covers the static header words, written once at format
// time. The mutable words (watermark, state) are excluded: the watermark is
// bounds-checked at recovery and the state machine has a conservative
// default arm, so neither needs — nor could keep up with — a per-store
// checksum.
func headerChecksum(version, regionSize uint64) uint64 {
	return ptm.HeaderChecksum(magicValue, version, regionSize)
}

// MinRegionSize is the smallest usable per-copy region size.
const MinRegionSize = heapBase + alloc.MinSize

// New creates a fresh device sized for two copies of regionSize bytes plus
// the header, formats it, and opens an engine on it.
func New(regionSize int, cfg Config) (*Engine, error) {
	if regionSize < MinRegionSize {
		return nil, fmt.Errorf("core: region size %d below minimum %d", regionSize, MinRegionSize)
	}
	regionSize = ptm.Align(regionSize, pmem.LineSize)
	tail := 0
	if cfg.ReserveTail > 0 {
		tail = ptm.Align(cfg.ReserveTail, pmem.LineSize)
	}
	dev := pmem.New(headSize+2*regionSize+tail, cfg.Model)
	return Open(dev, cfg)
}

// Open attaches an engine to a device, formatting it if it has never held a
// Romulus instance and running crash recovery otherwise (Algorithm 1's
// recover()).
func Open(dev *pmem.Device, cfg Config) (*Engine, error) {
	if cfg.Variant == VariantDefault {
		cfg.Variant = RomLog
	}
	reserve := 0
	if cfg.ReserveTail > 0 {
		reserve = ptm.Align(cfg.ReserveTail, pmem.LineSize)
	}
	// maxRegion is the largest per-copy size this device could physically
	// hold; the format-time size additionally leaves the reserved tail free.
	maxRegion := (dev.Size() - headSize) / 2
	maxRegion &^= pmem.LineSize - 1
	regionSize := (dev.Size() - headSize - reserve) / 2
	regionSize &^= pmem.LineSize - 1
	if regionSize < MinRegionSize {
		return nil, fmt.Errorf("core: device of %d bytes too small (need %d per region)", dev.Size(), MinRegionSize)
	}
	formatted := dev.Load64(offMagic) == magicValue
	if formatted {
		if sum := headerChecksum(dev.Load64(offVersion), dev.Load64(offRegionSize)); dev.Load64(offHeadSum) != sum {
			return nil, fmt.Errorf("core: header checksum %#x, computed %#x: %w",
				dev.Load64(offHeadSum), sum, ErrCorruptHeader)
		}
		if dev.Load64(offVersion) != layoutVersion {
			return nil, fmt.Errorf("core: layout version %d, want %d", dev.Load64(offVersion), layoutVersion)
		}
		// On a formatted device the checksummed header governs the layout:
		// any in-range recorded size is honored, so a device formatted with a
		// reserved tail (Config.ReserveTail) reopens correctly even when the
		// opener passes a different — or no — reserve. Out-of-range sizes are
		// still a layout mismatch: the copies would not fit the device.
		got := int(dev.Load64(offRegionSize))
		if got < MinRegionSize || got > maxRegion {
			return nil, fmt.Errorf("%w: header says %d, device fits %d..%d", ErrRegionMismatch, got, MinRegionSize, maxRegion)
		}
		regionSize = got
	}
	e := &Engine{
		dev:        dev,
		cfg:        cfg,
		mainBase:   headSize,
		backBase:   headSize + regionSize,
		regionSize: regionSize,
		handles:    make(chan *Handle, hsync.MaxThreads),
	}
	e.wtx = Tx{e: e, base: e.mainBase}
	e.wtx.log.enabled = cfg.Variant != Rom
	e.wtx.log.merge = !cfg.DisableLogMerge
	e.fset = pmem.NewFlushSet(dev.Size())
	if cfg.Variant == Rom && !cfg.FullReplicate {
		e.dirty.init(regionSize)
	}
	e.aud = cfg.Audit

	openTrips := dev.FaultsTripped()
	if !formatted {
		// No magic normally means a never-formatted device (or a format that
		// crashed before its final publish). But a NONZERO wrong magic whose
		// stored header checksum validates against the true magic constant is
		// a rotted magic word on a once-complete header — reformatting would
		// silently discard a full region of data, so refuse instead. Magic
		// zero stays "unformatted": a crash between the header fence and the
		// magic publish legitimately leaves a valid checksum with no magic,
		// and rot flips bits, never zeroing the whole word.
		if sum := dev.Load64(offHeadSum); dev.Load64(offMagic) != 0 && sum != 0 &&
			sum == headerChecksum(dev.Load64(offVersion), dev.Load64(offRegionSize)) {
			return nil, fmt.Errorf("core: magic %#x but header checksum matches a formatted region: %w",
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
		state := dev.Load64(offState)
		if a := e.aud; a != nil {
			a.TxBegin(e.Name(), "recovery")
		}
		t0 := time.Now()
		e.rec.State = state
		e.recover()
		if a := e.aud; a != nil {
			a.DurablePoint("recovery")
			a.TxEnd()
		}
		// Twin-copy validation, only meaningful at a quiescent open: under
		// IDL both copies must already agree byte-for-byte up to the
		// watermark, so any divergence is at-rest corruption of one copy
		// (recovery from MUT/CPY just copied one over the other, making the
		// comparison vacuous there). This is the redundancy dividend of the
		// twin-copy design: rot anywhere in either copy is detectable with
		// no extra checksums.
		if state == stateIDL && !cfg.DisableOpenVerify {
			e.rec.Compared = uint64(e.prefix())
			if off := e.Verify(); off >= 0 {
				return nil, fmt.Errorf("core: twin copies diverge at main offset %d at quiescent open: %w",
					off, ErrCorruptPayload)
			}
		}
		e.rec.Ns = uint64(time.Since(t0))
	}
	if dev.FaultsTripped() != openTrips {
		return nil, fmt.Errorf("core: media fault during open: %w", dev.FaultError())
	}
	heap, err := alloc.Open((*heapMem)(e), heapBase)
	if err != nil {
		return nil, fmt.Errorf("core: opening allocator: %w", err)
	}
	e.heap = heap
	e.wireConcurrency()
	return e, nil
}

// format initializes a blank device. A crash anywhere before the final
// magic store leaves the device unformatted; the next Open restarts from
// scratch, so initialization is failure-atomic.
func (e *Engine) format() error {
	d := e.dev
	d.Store64(offVersion, layoutVersion)
	d.Store64(offRegionSize, uint64(e.regionSize))
	d.Store64(offHeadSum, headerChecksum(layoutVersion, uint64(e.regionSize)))
	d.Store64(offState, stateIDL)
	// Roots are zero (nil) on a fresh device; format the heap.
	if _, err := alloc.Format((*rawMem)(e), heapBase, uint64(e.regionSize-heapBase)); err != nil {
		return fmt.Errorf("core: formatting heap: %w", err)
	}
	wm := e.heapTopRaw()
	d.Store64(offWatermark, wm)
	// Replicate the initialized prefix of main to back and persist it all.
	d.CopyWithin(e.backBase, e.mainBase, int(wm))
	d.PwbRange(0, headSize)
	d.PwbRange(e.mainBase, int(wm))
	d.PwbRange(e.backBase, int(wm))
	d.Pfence()
	d.Store64(offMagic, magicValue)
	d.Pwb(offMagic)
	d.Pfence()
	return nil
}

// recover restores consistency after a crash, per Algorithm 1: under MUT
// the back copy is authoritative, under CPY the main copy is, and under IDL
// both already agree. An unrecognized state word — impossible under the
// 8-byte-atomic-write assumption of the paper, but conceivable on hardware
// that tears below word granularity — is treated conservatively like MUT:
// restore main from back, rolling back whatever transaction the torn word
// belonged to, rather than silently skipping reconciliation.
func (e *Engine) recover() {
	d := e.dev
	dst, src := e.mainBase, e.backBase
	switch d.Load64(offState) {
	case stateIDL:
		return
	case stateCPY:
		dst, src = src, dst
	}
	wm := e.prefix()
	if e.cfg.FullReplicate {
		d.CopyWithin(dst, src, wm)
		d.PwbRange(dst, wm)
		e.rec.Lines, e.rec.Extents = uint64(wm+pmem.LineSize-1)/pmem.LineSize, 1
	} else {
		e.syncCopy(dst, src, wm)
	}
	if d.NeedsFence() { // nothing queued when the twins already agreed
		d.Pfence()
	}
	d.Store64(offState, stateIDL)
	d.Pwb(offState)
	d.Pfence()
}

// prefix returns the watermark — the bytes of each twin in use — clamped to
// the region size, so a rotted one cannot push a copy or compare out of bounds.
func (e *Engine) prefix() int {
	return min(int(e.dev.Load64(offWatermark)), e.regionSize)
}

// diffChunk is the unit of the twin comparison's fast path: bytes.Equal over
// a chunk runs at memcmp speed; only a mismatching chunk is looked at closer.
const diffChunk = 4096

// syncCopy makes dst[:wm] equal src[:wm] on the media at a cost proportional
// to what differs rather than to wm: the twins are compared chunk by chunk,
// a mismatching chunk line by line, and only runs of lines that need it are
// copied and written back. A line needs it unless its bytes already match
// AND the device holds no unpersisted store to it (Pending): right after a
// restart the volatile view is the media, so an equal line is equal on the
// media; on any other device state an equal-but-dirty line is still written
// back. The caller fences. A crash in here is as safe as in the whole-prefix
// copy: the state word is untouched, src is never written, dst only nears src.
func (e *Engine) syncCopy(dst, src, wm int) {
	d := e.dev
	from, to := d.Bytes(src, wm), d.Bytes(dst, wm)
	same := func(lo, hi int) bool {
		return bytes.Equal(from[lo:hi], to[lo:hi]) && !d.Pending(dst+lo, hi-lo)
	}
	run := -1 // start of the open run of lines to repair, -1 when none
	closeRun := func(end int) {
		if run >= 0 {
			d.CopyWithin(dst+run, src+run, end-run)
			d.PwbRange(dst+run, end-run)
			e.rec.Extents++
			run = -1
		}
	}
	for c := 0; c < wm; c += diffChunk {
		cend := min(c+diffChunk, wm)
		if same(c, cend) {
			closeRun(c)
			continue
		}
		for l := c; l < cend; l += pmem.LineSize {
			if same(l, min(l+pmem.LineSize, cend)) {
				closeRun(l)
			} else {
				if run < 0 {
					run = l
				}
				e.rec.Lines++
			}
		}
	}
	closeRun(wm)
	e.rec.Compared = uint64(wm)
}

// imageState returns the state word of a formatted media image, if it is one.
func imageState(img []byte) (uint64, bool) {
	if len(img) < headSize || binary.LittleEndian.Uint64(img[offMagic:]) != magicValue {
		return 0, false
	}
	return binary.LittleEndian.Uint64(img[offState:]), true
}

// RecoveryPending reports whether opening a device with these media
// contents would perform actual recovery work: the image holds a formatted
// region whose transaction state machine is not idle. Crash-chain harnesses
// use it to tell crashes that landed inside recover() from crashes whose
// reopen was a no-op.
func RecoveryPending(img []byte) bool {
	st, ok := imageState(img)
	return ok && st != stateIDL
}

// ReplicationPending reports whether the image crashed between a commit's
// durable point and the end of replication (state CPY): the transaction is
// durable but back is stale, and recovery will re-run the main→back copy.
// Crash harnesses aiming failures at the replication path use it to census
// which captures actually landed mid-replicate rather than elsewhere in the
// round.
func ReplicationPending(img []byte) bool {
	st, ok := imageState(img)
	return ok && st == stateCPY
}

// wireConcurrency installs the variant-specific writer hooks and creates
// the flat combiner.
func (e *Engine) wireConcurrency() {
	switch e.cfg.Variant {
	case Rom, RomLog:
		e.hooks = flatcombine.Hooks[*Tx]{
			Begin: func() *Tx {
				e.rw.WriterArrive()
				return e.beginTx()
			},
			Commit: func(t *Tx, ops int) {
				t.batchOps = ops
				e.durablePoint(t)
				// Main is final and durable: let readers at it while
				// Replicate brings back up to date. Readers never load back,
				// and the next Begin drains them before main changes again.
				e.rw.WriterDepart()
			},
			Replicate: e.replicate,
			Rollback: func(t *Tx) {
				e.rollbackTx(t)
				e.rw.WriterDepart()
			},
		}
	case RomLR:
		e.hooks = flatcombine.Hooks[*Tx]{
			Begin: func() *Tx {
				// First toggle of the update (§5.3): divert readers to the
				// back copy and wait for stragglers on main.
				e.lr.Toggle(leftright.Back)
				return e.beginTx()
			},
			Commit: func(t *Tx, ops int) {
				t.batchOps = ops
				e.durablePoint(t)
				// Second toggle: main is durable, let readers at it while
				// Replicate brings back up to date.
				e.lr.Toggle(leftright.Main)
			},
			Replicate: e.replicate,
			Rollback: func(t *Tx) {
				e.rollbackTx(t)
				e.lr.Toggle(leftright.Main)
			},
		}
	}
	e.comb = flatcombine.New(e.hooks)
}

// beginTx opens the single writer transaction: publish MUT durably, then
// let user code mutate main in place. Fence 1 of 4 (elided when the MUT
// marker's write-back already persisted, as under ordered-pwb models).
func (e *Engine) beginTx() *Tx {
	t := &e.wtx
	t.log.reset()
	e.dirty.reset()
	e.wmBumped = false
	t.loads, t.stores, t.writeBytes = 0, 0, 0
	t.batchOps = 1
	if a := e.aud; a != nil {
		a.TxBegin(e.Name(), "update")
	}
	st := e.dev.Stats()
	e.txStartPwb = st.Pwbs
	e.txStartFence = st.Pfences + st.Psyncs
	e.dev.Store64(offState, stateMUT)
	e.dev.Pwb(offState)
	if e.dev.NeedsFence() {
		e.dev.Pfence()
	}
	return t
}

// durablePoint commits the transaction to main: after the psync returns,
// the transaction is durable (ACID) even though back is stale. Fences 2
// and 3 of 4. The Commit hook releases readers right after it: C-RW-WP's
// WriterDepart for Rom and RomLog, the second left-right toggle for RomLR.
//
// This is where the batch's deferred write-backs land: one deduplicated pwb
// per dirty line (each line flushed at most once per durability round, no
// matter how many stores — from how many batched operations — hit it),
// ordered by the fence ahead of the CPY marker. Fences with no queued
// write-backs are provably no-ops and skipped, so an empty update
// transaction pays no flush traffic at all.
func (e *Engine) durablePoint(t *Tx) {
	d := e.dev
	if e.cfg.DeferPwb && t.log.enabled {
		for _, r := range t.log.compacted() {
			d.PwbRange(e.mainBase+int(r.Off), int(r.N))
		}
	} else if !e.cfg.EagerPwb {
		e.fset.Flush(d)
	}
	if d.NeedsFence() {
		d.Pfence()
	}
	d.Store64(offState, stateCPY)
	d.Pwb(offState)
	if d.NeedsFence() {
		d.Psync()
	}
	if a := e.aud; a != nil {
		a.DurablePoint("commit")
		if ba, ok := a.(ptm.BatchAuditor); ok {
			ba.BatchCommitted(t.batchOps)
		}
	}
}

// replicate brings back up to date with main and returns the state machine
// to IDL. Fence 4 of 4 (elided when replication left nothing queued, e.g.
// an empty transaction or an ordered-pwb model). The final IDL store needs
// no pwb: if it fails to persist, recovery from CPY re-runs this
// (idempotent) copy.
//
// No caller's result depends on it: readers were let back onto main and the
// round's combined announcers released at the durable point. It is the
// combiner's Replicate hook and runs under the writer lock, so the next
// transaction's Begin, and Snapshot, always find back == main; fence 4
// orders the back copy ahead of that transaction's MUT marker. Direct-entry
// callers (the group committer) still return only after it.
func (e *Engine) replicate(t *Tx) {
	d := e.dev
	var copied, extents uint64
	if t.log.enabled {
		copied, extents = e.copyRanges(e.backBase, e.mainBase, t.log.compacted())
	} else if e.dirty.enabled() {
		// Dirty-range replication for the basic variant: copy only the cache
		// lines this round stored to, in address order. Every copied line was
		// just dirtied, so each write-back hits a line with pending stores —
		// no audit_pwb_clean waste — and an empty or fault-refused round
		// copies nothing at all (the same media-fault smear guard the
		// zero-store check below gives the full-copy ablation).
		copied, extents = e.copyRanges(e.backBase, e.mainBase, e.dirty.extents())
		e.dirty.reset()
	} else if t.stores > 0 {
		// A zero-store batch left main == back, so the full-watermark copy
		// has nothing to do. Skipping it matters beyond waste: a read-only
		// update that tripped a media fault must not drag the bulk copy
		// machinery across the faulted line and smear corruption into the
		// healthy twin.
		wm := int(d.Load64(offWatermark))
		d.CopyWithin(e.backBase, e.mainBase, wm)
		d.PwbRange(e.backBase, wm)
		copied = uint64(wm)
		extents = 1
	}
	e.replBytes.Add(copied)
	e.replExtents.Add(extents)
	if d.NeedsFence() {
		d.Pfence()
	}
	d.Store64(offState, stateIDL)
	e.pwbHist.Observe(d.Stats().Pwbs - e.txStartPwb)
	e.endUpdate(t, obs.OutcomeCommit, copied, uint64(t.batchOps))
}

// endUpdate closes a durability round's books: the trace event covering the
// whole batch (rollbacks report no batch size) and the auditor's bracket.
func (e *Engine) endUpdate(t *Tx, outcome obs.Outcome, copied, batchOps uint64) {
	if s := e.trace; s != nil {
		st := e.dev.Stats()
		s.Emit(obs.TxEvent{
			Engine:      e.cfg.Variant.String(),
			Kind:        obs.KindUpdate,
			Outcome:     outcome,
			Reads:       t.loads,
			Writes:      t.stores,
			WriteBytes:  t.writeBytes,
			CopiedBytes: copied,
			Pwbs:        st.Pwbs - e.txStartPwb,
			Fences:      st.Pfences + st.Psyncs - e.txStartFence,
			BatchOps:    batchOps,
		})
	}
	if a := e.aud; a != nil {
		a.TxEnd()
	}
}

// copyRanges copies the given region-relative ranges from the twin at src to
// the twin at dst and writes the destination lines back. Every range is
// copied before any is written back: distinct ranges can share a cache line,
// and interleaving copy/pwb per range would store into lines already queued
// for write-back. The flush set (empty by now: the durable point drained it,
// rollback reset it) dedups the burst instead.
func (e *Engine) copyRanges(dst, src int, ranges []rng) (copied, extents uint64) {
	d := e.dev
	for _, r := range ranges {
		d.CopyWithin(dst+int(r.Off), src+int(r.Off), int(r.N))
		if e.cfg.EagerPwb {
			d.PwbRange(dst+int(r.Off), int(r.N))
		} else {
			e.fset.Add(dst+int(r.Off), int(r.N))
		}
		copied += r.N
	}
	if !e.cfg.EagerPwb {
		e.fset.Flush(d)
	}
	return copied, uint64(len(ranges))
}

// rollbackTx reverts an in-flight transaction (user code returned an error
// or panicked) by restoring the modified ranges of main from back — the
// same copy recovery would perform, done eagerly.
func (e *Engine) rollbackTx(t *Tx) {
	d := e.dev
	// Drop the batch's deferred write-backs: the restore below flushes the
	// authoritative bytes itself (through the same deduplicated burst, since
	// restored ranges can share cache lines just like replicated ones). The
	// watermark write-back is the one entry that must survive the drop — the
	// media watermark has to stay ahead of the media heap top even when the
	// allocating transaction rolls back — so it is reissued here (only when
	// this round actually raised it: an unconditional reissue would be a
	// clean-line pwb, the waste class the auditor censuses) and drained by
	// the fence below.
	e.fset.Reset()
	if e.wmBumped {
		d.Pwb(offWatermark)
	}
	var copied, extents uint64
	if t.log.enabled {
		copied, extents = e.copyRanges(e.mainBase, e.backBase, t.log.compacted())
	} else if e.dirty.enabled() {
		// Dirty-range rollback: restore from back exactly the lines this
		// round stored to. Beyond symmetry with replicate, the narrow restore
		// strengthens the media-fault guard — the bulk copy never traverses
		// faulted lines the transaction did not itself touch.
		copied, extents = e.copyRanges(e.mainBase, e.backBase, e.dirty.extents())
		e.dirty.reset()
	} else if t.stores > 0 {
		// Same zero-store guard as replicate: a transaction that never
		// touched main (e.g. a load-only probe that hit a media fault and
		// was refused) has nothing to restore, and running the bulk copy
		// anyway would read through the faulted line and corrupt the copy
		// that was still good.
		wm := int(d.Load64(offWatermark))
		d.CopyWithin(e.mainBase, e.backBase, wm)
		d.PwbRange(e.mainBase, wm)
		copied = uint64(wm)
		extents = 1
	}
	e.replBytes.Add(copied)
	e.replExtents.Add(extents)
	if d.NeedsFence() {
		d.Pfence()
	}
	d.Store64(offState, stateIDL)
	e.rollbacks.Add(1)
	e.endUpdate(t, obs.OutcomeRollback, copied, 0)
}

// heapTopRaw reads the allocator's wilderness pointer directly (valid even
// before e.heap is opened, right after alloc.Format).
func (e *Engine) heapTopRaw() uint64 {
	h, err := alloc.Open((*rawMem)(e), heapBase)
	if err != nil {
		// format just succeeded; the heap must be openable
		panic(fmt.Sprintf("core: heap vanished after format: %v", err))
	}
	return h.Top()
}

// bumpWatermark raises the persistent high-water mark if the heap grew.
// The watermark is monotonic and lives in the header, outside the twin
// copies: if it persists "too high" after a rollback the only cost is
// copying a few extra (unreachable) bytes.
//
// Under the deduplicated flush discipline the write-back joins the batch's
// flush set (drained before the commit marker, so the watermark is durable
// by the durable point) instead of queueing the header line mid-mutation —
// the state-word store at commit lands on that same line, and an immediate
// pwb here would turn every allocating transaction into store_queued waste.
func (e *Engine) bumpWatermark() {
	top := e.heap.Top()
	if top > e.dev.Load64(offWatermark) {
		e.dev.Store64(offWatermark, top)
		e.wmBumped = true
		if e.cfg.EagerPwb || (e.cfg.DeferPwb && e.wtx.log.enabled) {
			e.dev.Pwb(offWatermark)
		} else {
			e.fset.Add(offWatermark, 8)
		}
	}
}

// Name implements ptm.PTM.
func (e *Engine) Name() string { return e.cfg.Variant.String() }

// Stats implements ptm.PTM.
func (e *Engine) Stats() ptm.TxStats {
	cs := e.comb.Stats()
	return ptm.TxStats{
		UpdateTxs:        e.updates.Load(),
		ReadTxs:          e.reads.Load(),
		Rollbacks:        e.rollbacks.Load(),
		Combined:         cs.Combined,
		Batches:          cs.Batches,
		BatchOps:         cs.BatchOps,
		CombineNs:        cs.CombineNs,
		ReplicatedBytes:  e.replBytes.Load(),
		ReplicateExtents: e.replExtents.Load(),
	}
}

// SetTrace installs (or, with nil, removes) the per-transaction trace sink.
// It implements obs.Traceable and must be called at a quiescent point: no
// transactions in flight. A flat-combined batch emits one update event
// covering every operation in the batch, so under single-threaded workloads
// events map one-to-one to Update calls.
func (e *Engine) SetTrace(s obs.Sink) { e.trace = s }

// SetAuditor installs (or, with nil, removes) the durability auditor. Like
// SetTrace it must be called at a quiescent point: no transactions in
// flight. Protocol work done before installation (e.g. format after New) is
// simply unaudited.
func (e *Engine) SetAuditor(a ptm.Auditor) { e.aud = a }

// Device exposes the underlying device for statistics and crash testing.
func (e *Engine) Device() *pmem.Device { return e.dev }

// RegionSize returns the size of each persistent copy.
func (e *Engine) RegionSize() int { return e.regionSize }

// DataOffsets returns the device offsets of user heap address 0 for every
// copy transactions may read — main and back, since RomulusLR readers load
// from the back instance mid-mutation. Fault-injection harnesses use it to
// address user data on the raw device.
func (e *Engine) DataOffsets() []int { return []int{e.mainBase, e.backBase} }

// Watermark returns the persistent high-water mark: the number of bytes of
// each twin in use, which bounds every copy and comparison between them.
func (e *Engine) Watermark() int { return int(e.dev.Load64(offWatermark)) }

// ReservedTail returns the device range past both region copies — bytes the
// engine never reads or writes, available to co-located structures such as
// the shard layer's flight recorder. size is zero on devices created without
// Config.ReserveTail (modulo sub-line alignment slack).
func (e *Engine) ReservedTail() (off, size int) {
	off = e.backBase + e.regionSize
	return off, e.dev.Size() - off
}

// TailRegion reports the reserved-tail range of a formatted device without
// opening an engine on it. Forensic tools (romulus-recover's flight-recorder
// dump) use it: a dump must locate the tail without running recovery, which
// Open would. The header checksum is verified so a torn header answers a
// typed error instead of a garbage offset.
func TailRegion(dev *pmem.Device) (off, size int, err error) {
	if dev.Load64(offMagic) != magicValue {
		return 0, 0, errors.New("core: device holds no formatted region")
	}
	if sum := headerChecksum(dev.Load64(offVersion), dev.Load64(offRegionSize)); dev.Load64(offHeadSum) != sum {
		return 0, 0, fmt.Errorf("core: header checksum %#x, computed %#x: %w",
			dev.Load64(offHeadSum), sum, ErrCorruptHeader)
	}
	rs := int(dev.Load64(offRegionSize))
	off = headSize + 2*rs
	if rs < MinRegionSize || off > dev.Size() {
		return 0, 0, fmt.Errorf("%w: header says region %d on a %d-byte device", ErrRegionMismatch, rs, dev.Size())
	}
	return off, dev.Size() - off, nil
}

// AllocStats returns allocator counters.
func (e *Engine) AllocStats() alloc.Stats { return e.heap.Stats() }

// CheckHeap validates allocator invariants; used by recovery tests.
func (e *Engine) CheckHeap() error { return e.heap.CheckInvariants() }

// PwbHistogram returns the distribution of pwb instructions issued per
// committed update transaction — the measurement behind the paper's §6.2
// observation that the linked list averages ~10 pwbs while the red-black
// tree's histogram peaks around 50 and 130. The histogram is live; its reads
// are atomic.
func (e *Engine) PwbHistogram() *obs.Histogram { return &e.pwbHist }

// ResetPwbHistogram clears the per-transaction pwb histogram, so that
// measurements can exclude setup work. Call at a quiescent point.
func (e *Engine) ResetPwbHistogram() { e.pwbHist.Reset() }

// Verify checks the twin-copy invariant at a quiescent point: outside any
// transaction both copies must hold identical bytes up to the watermark.
// Returns the offset of the first divergence, or -1 when consistent. Equal
// chunks are passed over at memcmp speed; only the first mismatching one is
// searched byte by byte.
func (e *Engine) Verify() int {
	wm := e.prefix()
	main := e.dev.Bytes(e.mainBase, wm)
	back := e.dev.Bytes(e.backBase, wm)
	for c := 0; c < wm; c += diffChunk {
		cend := min(c+diffChunk, wm)
		if bytes.Equal(main[c:cend], back[c:cend]) {
			continue
		}
		for i := c; ; i++ {
			if main[i] != back[i] {
				return i
			}
		}
	}
	return -1
}

// RecoveryStats reports what the Open that built this engine found on the
// media and what recovery did about it.
func (e *Engine) RecoveryStats() ptm.RecoveryStats { return e.rec }

// Close implements ptm.PTM. The persistent image remains valid.
func (e *Engine) Close() error {
	if a := e.aud; a != nil {
		a.EngineClose(e.Name())
	}
	return nil
}

// rawMem adapts the device for allocator access during format: plain
// stores into main with no logging (the caller persists in bulk afterward).
type rawMem Engine

func (m *rawMem) Load64(off uint64) uint64 {
	e := (*Engine)(m)
	return e.dev.Load64(e.mainBase + int(off))
}

func (m *rawMem) Store64(off uint64, v uint64) {
	e := (*Engine)(m)
	e.dev.Store64(e.mainBase+int(off), v)
}

// heapMem adapts the device for allocator access inside update
// transactions: every allocator store is interposed exactly like a user
// store (logged and flushed), so allocator metadata is rolled back with
// the transaction (§4.4).
type heapMem Engine

func (m *heapMem) Load64(off uint64) uint64 {
	e := (*Engine)(m)
	return e.dev.Load64(e.mainBase + int(off))
}

func (m *heapMem) Store64(off uint64, v uint64) {
	e := (*Engine)(m)
	e.wtx.Store64(ptm.Ptr(off), v)
}
