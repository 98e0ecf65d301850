// Package audit implements an online durability auditor for pmem.Device.
//
// The auditor attaches to the device's hook slot (composing with the crash
// Scheduler via pmem.ChainHooks) and shadows the device's per-cache-line
// persistence state: every store dirties the lines it covers, every pwb
// moves a dirty line to the flush queue (or straight to persistent under
// ordered models), and every fence drains the queue. On top of that shadow
// it checks the property the paper's correctness argument rests on (§4.1
// PCSO): at every point where an engine claims durability — the psync that
// advances the commit marker, a crash, engine close — no line the claim
// covers may still be dirty or unfenced. It simultaneously counts the waste
// the performance argument (§6.2) rests on avoiding: pwbs of clean lines,
// re-queued lines, and fences issued with an empty flush queue.
//
// Attribution: engines bracket protocol sections with TxBegin/TxEnd, so the
// auditor can attribute every line's last write to an engine and transaction
// kind, and (sampled, via runtime.Callers) to the user call site — the raw
// material for crash forensics.
package audit

import (
	"runtime"
	"strings"
	"sync"

	"repro/internal/pmem"
)

const (
	// defaultSampleEvery takes a call-site sample on every 64th store
	// operation. Sampling keeps the runtime.Callers cost off the common path
	// while still attributing hot lines, which are rewritten constantly.
	defaultSampleEvery = 64
	// maxViolations bounds the retained violation and media-fault records;
	// the total counters are never capped.
	maxViolations = 64
)

// lineState is the auditor's shadow of one cache line.
type lineState struct {
	dirty  bool   // stored since last pwb
	queued bool   // pwb'd but not yet fenced (unordered models only)
	seq    uint64 // global store sequence number of the last store
	engine string // engine that issued the last store
	kind   string // protocol section of the last store ("update", "recovery", "format")
	pcs    []uintptr
}

// Totals is a snapshot of the auditor's cumulative counters.
type Totals struct {
	PwbClean      uint64 // pwbs of lines that were neither dirty nor queued
	PwbRequeued   uint64 // pwbs of lines already in the flush queue and not re-dirtied
	StoreQueued   uint64 // stores landing on a line between its pwb and the fence
	FenceNoop     uint64 // fences issued with no pwb since the previous fence
	DurableChecks uint64 // DurablePoint invocations
	Violations    uint64 // durability violations detected (all kinds)
}

// Auditor shadows one Device. All state is guarded by one mutex: the hook
// callbacks run on mutating goroutines (serialized by the engines' own
// protocol for any given line), and the mutex additionally makes control
// reads (Totals, Summary, metric collection) safe from harness goroutines.
type Auditor struct {
	dev     *pmem.Device
	hooks   *pmem.Hooks
	ordered bool // device model persists at pwb; no flush queue exists

	sampleEvery int // call-site sample period in stores (defaultSampleEvery)

	mu          sync.Mutex
	lines       []lineState
	dirtyCount  int
	queuedCount int
	queuedOrder []int // lines in the shadow flush queue, fence-drain order

	seq            uint64 // global store sequence number
	lastDurable    uint64 // seq at the most recent DurablePoint
	pwbsSinceFence uint64
	sinceSample    int

	curEngine, curKind string // current TxBegin attribution

	pwbClean      uint64
	pwbRequeued   uint64
	storeQueued   uint64
	fenceNoop     uint64
	durableChecks uint64

	violationsTotal uint64
	violations      []Violation

	mediaFaultsTotal uint64
	mediaFaults      []MediaFault // retained records, capped at maxViolations
}

// New builds an auditor shadowing dev. The caller must still install its
// hooks (Attach, or pmem.ChainHooks composition with other observers).
func New(dev *pmem.Device) *Auditor {
	a := &Auditor{
		dev:         dev,
		ordered:     dev.Model().OrderedPwb,
		sampleEvery: defaultSampleEvery,
		lines:       make([]lineState, (dev.Size()+pmem.LineSize-1)/pmem.LineSize),
	}
	a.hooks = &pmem.Hooks{
		StoreAt: a.onStore,
		PwbAt:   a.onPwb,
		Fence:   a.onFence,
		Crash:   a.onCrash,
		Fault:   a.onFault,
	}
	return a
}

// Hooks returns the auditor's hook bundle for composition with other
// observers via pmem.ChainHooks. Chain the auditor before event consumers
// (e.g. the crash Scheduler) so its shadow is current when they act.
func (a *Auditor) Hooks() *pmem.Hooks { return a.hooks }

// Attach installs the auditor as the device's sole hook bundle.
func (a *Auditor) Attach() { a.dev.SetHooks(a.hooks) }

// onStore dirties every line the store covers and records attribution.
func (a *Auditor) onStore(off, n int) {
	a.mu.Lock()
	a.seq++
	var pcs []uintptr
	a.sinceSample++
	if a.sinceSample >= a.sampleEvery {
		a.sinceSample = 0
		buf := make([]uintptr, 16)
		// skip runtime.Callers, onStore and the device's store frame; deeper
		// pmem frames are filtered by name at resolution time.
		pcs = buf[:runtime.Callers(3, buf)]
	}
	last := (off + n - 1) / pmem.LineSize
	for line := off / pmem.LineSize; line <= last; line++ {
		st := &a.lines[line]
		if st.queued {
			// A store between a line's pwb and the fence: under unordered
			// models the queued (stale) copy persists at the fence while the
			// new bytes need their own pwb — a correctness hazard if the
			// writer assumed the pwb covered them (§4.1).
			a.storeQueued++
		}
		if !st.dirty {
			st.dirty = true
			a.dirtyCount++
		}
		st.seq = a.seq
		st.engine = a.curEngine
		st.kind = a.curKind
		if pcs != nil {
			st.pcs = pcs
		}
	}
	a.mu.Unlock()
}

// onPwb transitions the flushed line out of dirty, mirroring the device:
// ordered models persist immediately, unordered models queue until a fence.
func (a *Auditor) onPwb(off int) {
	a.mu.Lock()
	a.pwbsSinceFence++
	st := &a.lines[off/pmem.LineSize]
	switch {
	case st.dirty:
		st.dirty = false
		a.dirtyCount--
		if a.ordered {
			// Persisted at the pwb itself; no queue.
		} else if !st.queued {
			st.queued = true
			a.queuedCount++
			a.queuedOrder = append(a.queuedOrder, off/pmem.LineSize)
		}
		// dirty && queued (store-after-pwb) keeps its queue slot: the device
		// does not double-queue, and the pwb was necessary.
	case st.queued:
		a.pwbRequeued++
	default:
		a.pwbClean++
	}
	a.mu.Unlock()
}

// onFence drains the shadow flush queue; queued lines become persistent.
func (a *Auditor) onFence() {
	a.mu.Lock()
	if a.pwbsSinceFence == 0 {
		a.fenceNoop++
	}
	a.pwbsSinceFence = 0
	for _, line := range a.queuedOrder {
		st := &a.lines[line]
		if st.queued {
			st.queued = false
			a.queuedCount--
		}
	}
	a.queuedOrder = a.queuedOrder[:0]
	a.mu.Unlock()
}

// onCrash runs inside Device.Crash after the crash policy has been applied
// to the media contents and before the volatile view is discarded: the one
// moment both views of the failure exist. Its image diff records every
// durably-claimed lost line as a violation; then it resets the shadow, since
// the device comes back quiescent.
func (a *Auditor) onCrash() {
	a.mu.Lock()
	a.buildReport("crash", a.dev.Persisted())
	for i := range a.lines {
		a.lines[i] = lineState{}
	}
	a.dirtyCount, a.queuedCount = 0, 0
	a.queuedOrder = a.queuedOrder[:0]
	a.lastDurable = 0
	a.pwbsSinceFence = 0
	a.mu.Unlock()
}

// onFault records a media-read fault trip: which line failed, and — from the
// shadow — which engine and protocol section last wrote it. This is the
// forensic link between "the device refused a read" and "whose data was on
// that line", used by fault campaigns to attribute degraded-mode behavior.
func (a *Auditor) onFault(off int) {
	a.mu.Lock()
	a.mediaFaultsTotal++
	if len(a.mediaFaults) < maxViolations {
		line := off / pmem.LineSize
		rec := MediaFault{Off: off, Line: line}
		if line < len(a.lines) {
			st := &a.lines[line]
			rec.Seq = st.seq
			rec.Engine = st.engine
			rec.TxKind = st.kind
			rec.Site = resolveSite(st.pcs)
		}
		a.mediaFaults = append(a.mediaFaults, rec)
	}
	a.mu.Unlock()
}

// TxBegin attributes subsequent stores to an engine protocol section.
// Part of the ptm.Auditor interface.
func (a *Auditor) TxBegin(engine, kind string) {
	a.mu.Lock()
	a.curEngine, a.curKind = engine, kind
	a.mu.Unlock()
}

// TxEnd closes the current attribution section.
func (a *Auditor) TxEnd() {
	a.mu.Lock()
	a.curEngine, a.curKind = "", ""
	a.mu.Unlock()
}

// DurablePoint checks the PCSO claim an engine just made: everything stored
// so far is persistent, so no line may be dirty or still in the flush queue.
// Engines call it immediately after the psync that advances their commit
// marker (§4.1).
func (a *Auditor) DurablePoint(point string) {
	a.mu.Lock()
	a.durableChecks++
	a.lastDurable = a.seq
	if a.dirtyCount > 0 || a.queuedCount > 0 {
		for line := range a.lines {
			st := &a.lines[line]
			if st.dirty || st.queued {
				a.recordViolation(Violation{
					Kind:   "durable-point",
					Point:  point,
					Line:   line,
					Off:    line * pmem.LineSize,
					State:  stateName(st),
					Seq:    st.seq,
					Engine: st.engine,
					TxKind: st.kind,
					Site:   resolveSite(st.pcs),
				})
			}
		}
	}
	a.mu.Unlock()
}

// EngineClose checks the engine's final durability claim: any line still
// dirty or unfenced that a durable point already claimed persistent
// (seq <= lastDurable) has been lost. Lines written after the last durable
// point (e.g. Romulus's deliberately-unflushed IDL store, which recovery
// reconstructs) are exempt — nothing claimed them durable.
func (a *Auditor) EngineClose(engine string) {
	a.mu.Lock()
	for line := range a.lines {
		st := &a.lines[line]
		if (st.dirty || st.queued) && st.seq > 0 && st.seq <= a.lastDurable {
			a.recordViolation(Violation{
				Kind:   "close",
				Point:  engine,
				Line:   line,
				Off:    line * pmem.LineSize,
				State:  stateName(st),
				Seq:    st.seq,
				Engine: st.engine,
				TxKind: st.kind,
				Site:   resolveSite(st.pcs),
			})
		}
	}
	a.mu.Unlock()
}

// recordViolation appends v under a.mu, capping retained records.
func (a *Auditor) recordViolation(v Violation) {
	a.violationsTotal++
	if len(a.violations) < maxViolations {
		a.violations = append(a.violations, v)
	}
}

// Forensics diffs the device's volatile view against a crash image (e.g.
// from Scheduler.Images) and returns the structured report: every lost line
// with its last-writer attribution, flagging as violations those the engine
// had already claimed durable. Call at a point where no mutator is running,
// or from a hook on the mutating goroutine.
func (a *Auditor) Forensics(img []byte) *Report {
	a.mu.Lock()
	rep := a.buildReport("crash", img)
	a.mu.Unlock()
	return rep
}

// Summary returns the report without an image diff — current shadow state,
// waste counters, and retained violations. Safe while mutators run.
func (a *Auditor) Summary() *Report {
	a.mu.Lock()
	rep := a.buildReport("summary", nil)
	a.mu.Unlock()
	return rep
}

// buildReport assembles a Report under a.mu. A non-nil img is diffed line by
// line against the volatile view; durably-claimed lost lines become
// violations of kind "crash-loss".
func (a *Auditor) buildReport(point string, img []byte) *Report {
	rep := &Report{
		Point:          point,
		Lines:          len(a.lines),
		DirtyLines:     a.dirtyCount,
		QueuedLines:    a.queuedCount,
		LastDurableSeq: a.lastDurable,
		StoreSeq:       a.seq,
		Waste: Waste{
			PwbClean:    a.pwbClean,
			PwbRequeued: a.pwbRequeued,
			StoreQueued: a.storeQueued,
			FenceNoop:   a.fenceNoop,
		},
	}
	if img != nil {
		mem := a.dev.Bytes(0, a.dev.Size())
		n := len(img)
		if len(mem) < n {
			n = len(mem)
		}
		for line := 0; line*pmem.LineSize < n; line++ {
			lo := line * pmem.LineSize
			hi := lo + pmem.LineSize
			if hi > n {
				hi = n
			}
			if string(mem[lo:hi]) == string(img[lo:hi]) {
				continue
			}
			st := &a.lines[line]
			claimed := (st.dirty || st.queued) && st.seq > 0 && st.seq <= a.lastDurable
			rep.Lost = append(rep.Lost, LostLine{
				Line:           line,
				Off:            lo,
				State:          stateName(st),
				Seq:            st.seq,
				Engine:         st.engine,
				TxKind:         st.kind,
				Site:           resolveSite(st.pcs),
				DurablyClaimed: claimed,
			})
			if claimed {
				a.recordViolation(Violation{
					Kind:   "crash-loss",
					Point:  point,
					Line:   line,
					Off:    lo,
					State:  stateName(st),
					Seq:    st.seq,
					Engine: st.engine,
					TxKind: st.kind,
					Site:   resolveSite(st.pcs),
				})
			}
		}
	}
	rep.Violations = append([]Violation(nil), a.violations...)
	rep.ViolationsTotal = a.violationsTotal
	rep.MediaFaults = append([]MediaFault(nil), a.mediaFaults...)
	rep.MediaFaultsTotal = a.mediaFaultsTotal
	return rep
}

// Totals snapshots the cumulative counters.
func (a *Auditor) Totals() Totals {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Totals{
		PwbClean:      a.pwbClean,
		PwbRequeued:   a.pwbRequeued,
		StoreQueued:   a.storeQueued,
		FenceNoop:     a.fenceNoop,
		DurableChecks: a.durableChecks,
		Violations:    a.violationsTotal,
	}
}

// ViolationCount returns the total number of violations detected.
func (a *Auditor) ViolationCount() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.violationsTotal
}

// Violations returns a copy of the retained violation records.
func (a *Auditor) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Violation(nil), a.violations...)
}

// stateName renders a line's shadow state for reports.
func stateName(st *lineState) string {
	switch {
	case st.dirty && st.queued:
		return "dirty+queued"
	case st.dirty:
		return "dirty"
	case st.queued:
		return "queued"
	case st.seq == 0:
		return "untracked"
	default:
		return "clean"
	}
}

// resolveSite turns a sampled PC slice into a stable, path-free description
// of up to two user frames ("pkg.Func < pkg.Caller"). Frames inside the
// pmem device and the auditor itself are filtered; function names only (no
// file:line) keep forensic reports deterministic across toolchains.
func resolveSite(pcs []uintptr) string {
	if len(pcs) == 0 {
		return ""
	}
	frames := runtime.CallersFrames(pcs)
	var parts []string
	for {
		fr, more := frames.Next()
		fn := fr.Function
		if fn != "" &&
			!strings.Contains(fn, "internal/pmem.") &&
			!strings.Contains(fn, "internal/audit.(*Auditor)") {
			if i := strings.LastIndexByte(fn, '/'); i >= 0 {
				fn = fn[i+1:]
			}
			parts = append(parts, fn)
			if len(parts) == 2 {
				break
			}
		}
		if !more {
			break
		}
	}
	return strings.Join(parts, " < ")
}
