package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/crwwp"
	"repro/internal/flatcombine"
	"repro/internal/leftright"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// Variant selects which of the three Romulus algorithms an engine runs.
// The zero value selects RomLog, the paper's flagship configuration.
type Variant int

const (
	// variantDefault resolves to RomLog.
	variantDefault Variant = iota
	// Rom is the basic algorithm (§4.1): C-RW-WP plus flat combining for
	// concurrency. It runs the same code as RomLog; the name is kept for the
	// paper's figures and tables. Algorithm 1's whole-prefix copy is
	// Config.FullReplicate.
	Rom
	// RomLog is §4.7's variant, which replicates only what the round stored.
	// Here every variant does: replication copies the round's stored cache
	// lines (see Engine.lines), with no byte-granular range log.
	RomLog
	// RomLR is RomLog with Left-Right synchronization: wait-free readers.
	RomLR
)

// String returns the short engine name used in benchmark output.
func (v Variant) String() string {
	switch v {
	case Rom:
		return "rom"
	case variantDefault, RomLog:
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
	// EagerPwb restores the pre-batching flush discipline: one pwb issued
	// inline with every store, re-flushing lines already queued (the waste
	// baseline; by default the durable point writes each stored line back
	// exactly once).
	EagerPwb bool
	// FullReplicate restores the paper's whole-prefix copies (Algorithm 1)
	// at commit and at recovery, for every variant (ablation). At commit,
	// replicate and rollback copy the entire watermark prefix instead of the
	// round's stored lines; at recovery, the whole prefix is copied and
	// written back instead of only the lines the crash left different. The
	// equivalence property tests and the §4.7 replication-volume and §6.5
	// recovery contrasts measure against it.
	FullReplicate bool
	// DisableFlatCombining bounds every combining round to one request, so
	// writers serialize on the combiner's slot with no aggregation
	// (ablation).
	DisableFlatCombining bool
	// Audit, when non-nil, receives the engine's durability-protocol
	// markers: TxBegin/TxEnd around each update transaction, format and
	// recovery, and DurablePoint at every commit-marker psync.
	Audit ptm.Auditor
	// ReserveTail reserves this many bytes (line-aligned up) at the tail of
	// a freshly created device, past both region copies, for a caller-owned
	// structure — the shard layer's flight recorder lives there. NewDevice
	// sizes for it and Open's format leaves it free: on reopen the header's
	// recorded region size governs the layout, so the tail is implicitly
	// whatever the device holds past the copies (ReservedTail reports it).
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

	comb *flatcombine.Combiner[*Tx]
	rw   crwwp.Lock   // Rom, RomLog
	lr   leftright.LR // RomLR
	wtx  Tx           // the single writer transaction, reused

	// lines is the one record of a durability round's stores: every device
	// line in [0, backBase) that a store of the round — from however many
	// combined operations — or its watermark bump touched, in first-touch
	// order. The durable point writes them back; replicate copies the main
	// ones to back and rollback restores them from back (copyLines). It is
	// volatile: recovery never consults it. extentBuf is copyLines' scratch.
	// Only the single writer (the combiner) touches either, like wtx.
	lines     pmem.LineSet
	extentBuf []rng

	updates atomic.Uint64
	reads   atomic.Uint64
	// replBytes and replExtents count bytes and contiguous ranges copied
	// between the twin copies at replication and rollback — the
	// write-amplification measure Stats reports as ReplicatedBytes.
	replBytes   atomic.Uint64
	replExtents atomic.Uint64

	// aud receives durability-protocol markers when non-nil. Set at Open
	// (Config.Audit) or at a quiescent point (SetAuditor).
	aud ptm.Auditor

	// rec is what this engine's Open found and repaired; fixed after Open.
	rec ptm.RecoveryStats
}

var _ ptm.PTM = (*Engine)(nil)

// ErrRegionMismatch is returned by Open when the device does not match the
// recorded layout: a region size it cannot hold, or a layout version this
// build does not read.
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

// NewDevice returns a blank device sized for the header, two copies of
// regionSize bytes and cfg.ReserveTail; Open formats it.
func NewDevice(regionSize int, cfg Config) (*pmem.Device, error) {
	if regionSize < MinRegionSize {
		return nil, fmt.Errorf("core: region size %d below minimum %d", regionSize, MinRegionSize)
	}
	regionSize = ptm.Align(regionSize, pmem.LineSize)
	tail := 0
	if cfg.ReserveTail > 0 {
		tail = ptm.Align(cfg.ReserveTail, pmem.LineSize)
	}
	return pmem.New(headSize+2*regionSize+tail, cfg.Model), nil
}

// New formats a NewDevice and opens an engine on it.
func New(regionSize int, cfg Config) (*Engine, error) {
	dev, err := NewDevice(regionSize, cfg)
	if err != nil {
		return nil, err
	}
	return Open(dev, cfg)
}

// Open attaches an engine to a device, formatting it if it has never held a
// Romulus instance and running crash recovery otherwise (Algorithm 1's
// recover()).
func Open(dev *pmem.Device, cfg Config) (*Engine, error) {
	if cfg.Variant == variantDefault {
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
			return nil, fmt.Errorf("%w: layout version %d, want %d", ErrRegionMismatch, dev.Load64(offVersion), layoutVersion)
		}
		// On a formatted device the checksummed header governs the layout:
		// any in-range recorded size is honored, so a device formatted with a
		// reserved tail (Config.ReserveTail) reopens correctly even when the
		// opener passes a different — or no — reserve. Out-of-range sizes are
		// still a layout mismatch: the copies would not fit the device.
		got := int(dev.Load64(offRegionSize))
		if got < MinRegionSize || got > maxRegion || got%pmem.LineSize != 0 {
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
	}
	e.wtx = Tx{e: e, base: e.mainBase}
	e.lines = pmem.NewLineSet(e.backBase)
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
		if state == stateIDL {
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
	return int(min(e.dev.Load64(offWatermark), uint64(e.regionSize)))
}

// syncCopy makes dst[:wm] equal src[:wm] on the media at a cost proportional
// to what differs rather than to wm: the twins are compared chunk by chunk,
// a mismatching chunk line by line, and only runs of lines that need it are
// copied and written back. A line needs it unless its bytes already match
// AND the device holds no unpersisted store to it (Pending): right after a
// restart the volatile view is the media, so an equal line is equal on the
// media; on any other device state an equal-but-dirty line is still written
// back. The caller fences. A crash in here is as safe as in the whole-prefix
// copy: the state word is untouched, src is never written, dst only nears src.
//
// The chunk comparison, a pass over both twins, runs across processors
// (Device.Differs) and before any repair: a repair writes only lines behind
// the walk, so the chunks ahead compare as they would have. The walk itself
// stays serial, so its copies, pwbs and crash points come in ascending order.
func (e *Engine) syncCopy(dst, src, wm int) {
	d := e.dev
	from, to := d.Bytes(src, wm), d.Bytes(dst, wm)
	differs := d.Differs(dst, src, wm)
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
	for c := 0; c < wm; c += pmem.DiffChunk {
		cend := min(c+pmem.DiffChunk, wm)
		if !differs[c/pmem.DiffChunk] {
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
	// Rom and RomLog drain readers with C-RW-WP at Begin; RomLR's first
	// toggle (§5.3) diverts them to the back copy and waits for stragglers
	// on main. Both let readers at main once it is final and durable, while
	// Replicate brings back up to date: C-RW-WP readers never load back, and
	// the next Begin drains them before main changes again.
	arrive, depart := e.rw.WriterArrive, e.rw.WriterDepart
	if e.cfg.Variant == RomLR {
		arrive = func() { e.lr.Toggle(leftright.Back) }
		depart = func() { e.lr.Toggle(leftright.Main) }
	}
	maxBatch := 0
	if e.cfg.DisableFlatCombining {
		maxBatch = 1
	}
	e.comb = flatcombine.New(flatcombine.Hooks[*Tx]{
		Begin: func() *Tx {
			arrive()
			return e.beginTx()
		},
		Commit: func(*Tx) {
			e.durablePoint()
			depart()
		},
		Replicate: e.replicate,
		Rollback: func(*Tx) {
			e.rollbackTx()
			depart()
		},
	}, maxBatch)
}

// beginTx opens the single writer transaction: publish MUT durably, then
// let user code mutate main in place. Fence 1 of 4 (elided when the MUT
// marker's write-back already persisted, as under ordered-pwb models).
func (e *Engine) beginTx() *Tx {
	t := &e.wtx
	e.lines.Reset()
	if a := e.aud; a != nil {
		a.TxBegin(e.Name(), "update")
	}
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
// This is where the batch's deferred write-backs land: one pwb per line of
// the round's line set, in first-touch order (each line flushed at most once
// per durability round, no matter how many stores — from how many batched
// operations — hit it), ordered by the fence ahead of the CPY marker. The
// set is kept: replicate copies its main lines next. Fences with no queued
// write-backs are provably no-ops and skipped, so an empty update
// transaction pays no flush traffic at all.
func (e *Engine) durablePoint() {
	d := e.dev
	if !e.cfg.EagerPwb {
		for _, line := range e.lines.Lines() {
			d.Pwb(int(line) * pmem.LineSize)
		}
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
	}
}

// replicate brings back up to date with main and returns the state machine
// to IDL. Fence 4 of 4 (elided when replication left nothing queued, e.g.
// an empty transaction or an ordered-pwb model). The final IDL store needs
// no pwb: if it fails to persist, recovery from CPY re-runs this
// (idempotent) copy.
//
// No caller's result depends on it: readers were let back onto main and the
// round's requests released at the durable point. It is the combiner's
// Replicate hook and runs with its slot held, so the next transaction's
// Begin, and Snapshot, always find back == main; fence 4 orders the back
// copy ahead of that transaction's MUT marker. UpdateEach callers (the group
// committer) still return only after it.
func (e *Engine) replicate(*Tx) {
	e.copyLines(e.backBase, e.mainBase)
	e.endUpdate()
}

// endUpdate closes a durability round after its copy between the twins:
// fence 4, the state machine back to IDL and the auditor's bracket.
func (e *Engine) endUpdate() {
	d := e.dev
	if d.NeedsFence() {
		d.Pfence()
	}
	d.Store64(offState, stateIDL)
	if a := e.aud; a != nil {
		a.TxEnd()
	}
}

// rng is a [Off, Off+N) byte range of a twin, relative to its base.
type rng struct {
	off, n uint64
}

// copyLines makes the twin at dst equal the twin at src over the round's
// stored main lines, counting the bytes and extents copied in replBytes and
// replExtents: every extent is copied, and only then are the destination
// lines written back, in address order. Every copied line was stored this
// round, so each write-back hits a line with pending stores — no
// audit_pwb_clean waste — and an empty or fault-refused round copies nothing
// at all. Under FullReplicate the whole watermark prefix is copied instead,
// unless the round stored to no main line: a zero-store batch left main ==
// back, and a read-only update that tripped a media fault must not drag the
// bulk copy across the faulted line and smear corruption into the healthy
// twin.
func (e *Engine) copyLines(dst, src int) {
	d := e.dev
	var copied, extents uint64
	if e.cfg.FullReplicate {
		if !slices.ContainsFunc(e.lines.Lines(), func(l int32) bool { return l >= mainLine }) {
			return
		}
		wm := e.prefix()
		d.CopyWithin(dst, src, wm)
		d.PwbRange(dst, wm)
		copied, extents = uint64(wm), 1
	} else {
		e.extentBuf = lineExtents(e.extentBuf, e.lines.Lines())
		for _, r := range e.extentBuf {
			d.CopyWithin(dst+int(r.off), src+int(r.off), int(r.n))
			copied += r.n
		}
		for _, r := range e.extentBuf {
			d.PwbRange(dst+int(r.off), int(r.n))
		}
		extents = uint64(len(e.extentBuf))
	}
	e.replBytes.Add(copied)
	e.replExtents.Add(extents)
}

// mainLine is the device line number of main's first line (main starts
// right after the header).
const mainLine = headSize / pmem.LineSize

// lineExtents sorts lines (device line numbers; reordered in place) and
// returns the main-region ones as region-relative byte extents, reusing
// dst's storage. Strictly adjacent lines coalesce, so a sequential store
// burst costs one CopyWithin; a clean line is never bridged, and header lines
// (the watermark's) are never returned.
func lineExtents(dst []rng, lines []int32) []rng {
	slices.Sort(lines)
	out := dst[:0]
	i, _ := slices.BinarySearch(lines, mainLine)
	for i < len(lines) {
		start := i
		for i++; i < len(lines) && lines[i] == lines[i-1]+1; i++ {
		}
		out = append(out, rng{uint64(lines[start]-mainLine) * pmem.LineSize, uint64(i-start) * pmem.LineSize})
	}
	return out
}

// rollbackTx reverts an in-flight transaction (user code returned an error
// or panicked) by restoring the round's stored lines of main from back — the
// same copy recovery would perform, done eagerly. The narrow restore is also
// a media-fault guard: the copy never traverses faulted lines the
// transaction did not itself touch.
func (e *Engine) rollbackTx() {
	d := e.dev
	// The round's stored main lines are written back by the restore below,
	// not at a durable point. The watermark line is the one write-back that
	// must still be issued — the media watermark has to stay ahead of the
	// media heap top even when the allocating transaction rolls back — and
	// it is in the set exactly when this round raised the watermark (an
	// unconditional pwb would hit a clean line, the waste class the auditor
	// censuses). endUpdate's fence drains it.
	if e.lines.Has(offWatermark) {
		d.Pwb(offWatermark)
	}
	e.copyLines(e.mainBase, e.backBase)
	e.endUpdate()
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
// The header line joins the round's line set, so the durable point writes
// it back (before the commit marker, so the watermark is durable by the
// durable point) instead of queueing it mid-mutation — where a later bump in
// the same round would store into a queued line. Replication and rollback
// never copy it: it is outside the twins.
func (e *Engine) bumpWatermark() {
	top := e.heap.Top()
	if top > e.dev.Load64(offWatermark) {
		e.dev.Store64(offWatermark, top)
		e.lines.Add(offWatermark, 8)
		if e.cfg.EagerPwb {
			e.dev.Pwb(offWatermark)
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
		Combined:         cs.Combined,
		Batches:          cs.Batches,
		BatchOps:         cs.BatchOps,
		ReplicatedBytes:  e.replBytes.Load(),
		ReplicateExtents: e.replExtents.Load(),
	}
}

// SetAuditor installs (or, with nil, removes) the durability auditor. It
// must be called at a quiescent point: no transactions in flight. Protocol work done before installation (e.g. format after New) is
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

// WriteTail runs f holding the engine's combining slot, so f's raw stores to the
// reserved tail serialize with every transaction on the same device. It opens
// no transaction and issues no fence of its own.
func (e *Engine) WriteTail(f func()) { e.comb.Exclusive(f) }

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

// Verify checks the twin-copy invariant at a quiescent point: outside any
// transaction both copies must hold identical bytes up to the watermark.
// Returns the offset of the first divergence, or -1 when consistent. Equal
// chunks are passed over at memcmp speed; only the first mismatching one is
// searched byte by byte.
func (e *Engine) Verify() int {
	wm := e.prefix()
	main := e.dev.Bytes(e.mainBase, wm)
	back := e.dev.Bytes(e.backBase, wm)
	for c := 0; c < wm; c += pmem.DiffChunk {
		cend := min(c+pmem.DiffChunk, wm)
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
// store (recorded in the round's line set), so allocator metadata is
// written back, replicated and rolled back with the transaction (§4.4).
type heapMem Engine

func (m *heapMem) Load64(off uint64) uint64 {
	e := (*Engine)(m)
	return e.dev.Load64(e.mainBase + int(off))
}

func (m *heapMem) Store64(off uint64, v uint64) {
	e := (*Engine)(m)
	e.wtx.Store64(ptm.Ptr(off), v)
}
