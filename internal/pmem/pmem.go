// Package pmem simulates byte-addressable persistent memory with explicit
// persistence primitives, for reproducing persistent-transactional-memory
// algorithms on hardware (and runtimes) that lack flush intrinsics.
//
// A Device presents two views of the same region:
//
//   - the volatile view, standing in for CPU caches plus DRAM, where every
//     store lands immediately; and
//   - the persisted view, standing in for the NVM media, which only receives
//     data through write-backs.
//
// It keeps one byte image — the volatile view — plus a shadow: for every
// line stored since it last reached the media, the 64 bytes the media still
// holds, captured just before the first such store and dropped when a
// write-back completes. The persisted view is the image with the shadow laid
// over it, so it costs memory for the lines in flight, not a second image.
//
// Stores mark 64-byte cache lines dirty. Pwb queues a line for write-back,
// Pfence orders and completes queued write-backs, and Psync additionally
// waits for durability (in this simulation Pfence and Psync both drain the
// queue; they differ only in injected latency, mirroring how SFENCE serves
// both roles on x86). Under the CLFLUSH model, Pwb is self-ordering and
// synchronous and the fences are no-ops, exactly as in the paper's setup.
//
// Crash applies an adversarial policy to lines that were dirty or queued but
// not yet fenced, producing the set of post-crash images real hardware could
// produce, and discards the volatile view by putting the media bytes of those
// lines back into the image. Recovery code then runs against what survived.
//
// The data path (loads, stores, write-backs) is deliberately unsynchronized:
// the transactional layers above guarantee that at most one mutator runs at a
// time and that readers never race with the mutator on the same locations,
// matching the C++ memory-model assumptions of the original algorithms. A
// layer whose readers do load words the mutator is storing uses the atomic
// word pair, Load64Atomic and Store64Atomic.
//
// The observability surface is the exception, fully synchronized so harness
// and metrics goroutines can watch a live device: the statistics counters
// are atomic (Stats and ResetStats are safe against concurrent instrumented
// stores), and the single hook slot (SetHooks) is an atomic pointer so a
// harness may install, replace or remove the hook bundle — and arm a
// Scheduler — while worker goroutines drive the data path. The hooks
// themselves still run on the mutating goroutine, inside the
// store/pwb/fence that triggered them.
package pmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// LineSize is the simulated cache-line size in bytes. All dirtiness and
// write-back tracking happens at this granularity, like CLFLUSH/CLWB.
const LineSize = 64

const lineShift = 6 // log2(LineSize)

// Stats is a snapshot of the persistence-relevant event counters since the
// last ResetStats. The counters feed Table 1 (fences per transaction, write
// amplification) and the pwb histograms discussed in §6.2 of the paper.
type Stats struct {
	Stores         uint64 // store operations issued
	BytesStored    uint64 // bytes written to the volatile image
	Pwbs           uint64 // persist write-backs issued
	Pfences        uint64 // persist fences issued
	Psyncs         uint64 // persist syncs issued
	LinesPersisted uint64 // cache lines that reached the media
	BytesPersisted uint64 // bytes that reached the media (whole lines)
}

// devStats is the live, atomically-maintained form of Stats: metrics
// collectors snapshot and reset these counters while workers drive the data
// path, so every field is an uncontended atomic add on the mutator.
type devStats struct {
	stores         atomic.Uint64
	bytesStored    atomic.Uint64
	pwbs           atomic.Uint64
	pfences        atomic.Uint64
	psyncs         atomic.Uint64
	linesPersisted atomic.Uint64
}

// Hooks bundles the per-event callbacks a harness or scheduler attaches to
// a Device. The bundle is installed atomically as one unit (SetHooks), so
// there is a single attach point instead of three independently racing
// slots; any nil member is simply skipped. Hooks run on the mutating
// goroutine, inside the primitive that triggered them, and may panic to
// simulate a crash at an exact persistence point.
type Hooks struct {
	// Store is called after every store with the total store count.
	Store func(n uint64)
	// Pwb is called after every Pwb with the total pwb count.
	Pwb func(n uint64)
	// Fence is called after every Pfence or Psync.
	Fence func()
	// StoreAt is called after every store with the byte range it covered,
	// [off, off+n). A StoreBytes or CopyWithin of any length is one call.
	StoreAt func(off, n int)
	// PwbAt is called after every Pwb with the line-aligned offset of the
	// flushed cache line.
	PwbAt func(off int)
	// Crash is called inside Crash after the policy has been applied to the
	// media contents but before the volatile view is discarded, so an
	// observer can diff Persisted against Bytes at the exact failure point.
	Crash func()
	// Fault is called when a load trips a media-fault line (MarkBad), with
	// the offset of the faulting access. Auditors use it to keep forensics
	// of every detected media error.
	Fault func(off int)
}

// Device is a simulated persistent-memory region. The zero value is not
// usable; create one with New.
type Device struct {
	mem    []byte  // the image — the volatile view: caches + DRAM
	shadow shadow  // what the NVM media still holds of lines stored since
	dirty  bitmap  // stored but not yet queued for write-back
	queued LineSet // queued by Pwb, not yet fenced, in queue order
	model  Model
	stats  devStats
	// hooks is an atomic pointer so that installation (from a harness
	// goroutine) never races with invocation (from the mutating goroutine).
	hooks atomic.Pointer[Hooks]
	// faults holds the installed media-fault line set (see fault.go); nil —
	// the overwhelmingly common case — costs one atomic load per read.
	faults     atomic.Pointer[faultSet]
	faultTrips atomic.Uint64
	faultLast  atomic.Pointer[MediaFaultError]
}

// New creates a Device of the given size (rounded up to a whole number of
// cache lines) using the given persistence model.
func New(size int, model Model) *Device {
	if size <= 0 {
		panic("pmem: non-positive device size")
	}
	size = (size + LineSize - 1) &^ (LineSize - 1)
	return newDevice(newImage(size, true), model)
}

// newDevice adopts mem, from newImage, as the image of a quiescent device.
func newDevice(mem []byte, model Model) *Device {
	lines := len(mem) >> lineShift
	d := &Device{mem: mem, shadow: shadow{slot: make([]int32, lines)},
		dirty: newBitmap(lines), queued: NewLineSet(len(mem)), model: model}
	track(d)
	return d
}

// Size returns the size of the region in bytes.
func (d *Device) Size() int { return len(d.mem) }

// Model returns the current persistence model.
func (d *Device) Model() Model { return d.model }

// Stats returns a consistent-enough snapshot of the event counters: each
// counter is read atomically, so Stats is safe against concurrent
// instrumented stores (individual counters may be skewed by in-flight
// operations; snapshot at quiescent points for exact cross-counter ratios).
func (d *Device) Stats() Stats {
	lines := d.stats.linesPersisted.Load()
	return Stats{
		Stores:         d.stats.stores.Load(),
		BytesStored:    d.stats.bytesStored.Load(),
		Pwbs:           d.stats.pwbs.Load(),
		Pfences:        d.stats.pfences.Load(),
		Psyncs:         d.stats.psyncs.Load(),
		LinesPersisted: lines,
		BytesPersisted: lines * LineSize,
	}
}

// PendingLines returns the shadow's population — lines stored but not written
// back — as of the device's last fence, ordered write-back, crash or
// PersistAll. Safe from any goroutine, like Stats.
func (d *Device) PendingLines() int { return int(d.shadow.n.Load()) }

// ResetStats zeroes the event counters. Safe to call while other goroutines
// drive the data path; counters reset one at a time, so a concurrent
// mutator's in-flight events land in either the old or the new epoch.
func (d *Device) ResetStats() {
	d.stats.stores.Store(0)
	d.stats.bytesStored.Store(0)
	d.stats.pwbs.Store(0)
	d.stats.pfences.Store(0)
	d.stats.psyncs.Store(0)
	d.stats.linesPersisted.Store(0)
}

// SetHooks atomically installs the hook bundle (nil removes it), replacing
// whatever was installed before. Safe to call while other goroutines drive
// the data path. This is the single attach point for schedulers and crash
// harnesses; metrics read the atomic counters (Stats) and leave this slot
// free.
func (d *Device) SetHooks(h *Hooks) { d.hooks.Store(h) }

// Hooks returns the installed hook bundle (nil when none), for a harness
// that chains one more observer onto it.
func (d *Device) Hooks() *Hooks { return d.hooks.Load() }

// markStored readies [off, off+n) for a store, before the bytes change: each
// run of lines the media still agrees with the image on is captured into the
// shadow in one copy, and the range is marked dirty a bitmap word at a time.
func (d *Device) markStored(off, n int) {
	first, last := off>>lineShift, (off+n-1)>>lineShift
	_ = d.shadow.slot[last] // a range running off the device fails before any state changes
	for l := first; l <= last; l++ {
		if d.shadow.slot[l] == 0 {
			end := l + 1
			for end <= last && d.shadow.slot[end] == 0 {
				end++
			}
			d.shadow.capture(l, d.mem[l<<lineShift:end<<lineShift])
			l = end // the line after a run has an entry, or is past the range
		}
	}
	for w := first >> 6; w <= last>>6; w++ {
		d.dirty.words[w] |= lineMask(w, first, last)
	}
}

// lineMask is the part of bitmap word w (64 lines) that lines first..last cover.
func lineMask(w, first, last int) uint64 {
	mask := ^uint64(0)
	if w == first>>6 {
		mask &= ^uint64(0) << uint(first&63)
	}
	if w == last>>6 {
		mask &= ^uint64(0) >> uint(63-last&63)
	}
	return mask
}

// stored counts a finished store of [off, off+n) and runs the store hooks.
func (d *Device) stored(off, n int) {
	stores := d.stats.stores.Add(1)
	d.stats.bytesStored.Add(uint64(n))
	if h := d.hooks.Load(); h != nil {
		if h.StoreAt != nil {
			h.StoreAt(off, n)
		}
		if h.Store != nil {
			h.Store(stores)
		}
	}
}

// Store8 writes one byte at off.
func (d *Device) Store8(off int, v byte) {
	d.markStored(off, 1)
	d.mem[off] = v
	d.stored(off, 1)
}

// Store16 writes a little-endian 16-bit value at off.
func (d *Device) Store16(off int, v uint16) {
	d.markStored(off, 2)
	binary.LittleEndian.PutUint16(d.mem[off:], v)
	d.stored(off, 2)
}

// Store32 writes a little-endian 32-bit value at off.
func (d *Device) Store32(off int, v uint32) {
	d.markStored(off, 4)
	binary.LittleEndian.PutUint32(d.mem[off:], v)
	d.stored(off, 4)
}

// Store64 writes a little-endian 64-bit value at off.
func (d *Device) Store64(off int, v uint64) {
	d.markStored(off, 8)
	binary.LittleEndian.PutUint64(d.mem[off:], v)
	d.stored(off, 8)
}

// StoreBytes copies src into the region at off.
func (d *Device) StoreBytes(off int, src []byte) {
	if len(src) == 0 {
		return
	}
	d.markStored(off, len(src))
	copy(d.mem[off:], src)
	d.stored(off, len(src))
}

// Memset fills n bytes at off with v.
func (d *Device) Memset(off int, v byte, n int) {
	if n == 0 {
		return
	}
	d.markStored(off, n)
	s := d.mem[off : off+n]
	if v == 0 {
		clear(s)
	} else {
		s[0] = v
		for done := 1; done < n; done *= 2 {
			copy(s[done:], s[:done])
		}
	}
	d.stored(off, n)
}

// Load8 reads one byte at off.
func (d *Device) Load8(off int) byte {
	if d.faultCheck(off, 1) {
		return d.mem[off] ^ corruptXor
	}
	return d.mem[off]
}

// Load16 reads a little-endian 16-bit value at off.
func (d *Device) Load16(off int) uint16 {
	v := binary.LittleEndian.Uint16(d.mem[off:])
	if d.faultCheck(off, 2) {
		v ^= corruptXor | corruptXor<<8
	}
	return v
}

// Load32 reads a little-endian 32-bit value at off.
func (d *Device) Load32(off int) uint32 {
	v := binary.LittleEndian.Uint32(d.mem[off:])
	if d.faultCheck(off, 4) {
		v ^= 0x01010101 * corruptXor
	}
	return v
}

// Load64 reads a little-endian 64-bit value at off.
func (d *Device) Load64(off int) uint64 {
	v := binary.LittleEndian.Uint64(d.mem[off:])
	if d.faultCheck(off, 8) {
		v ^= 0x0101010101010101 * corruptXor
	}
	return v
}

// Load64Atomic is Load64 done as one atomic access of the word at off, for
// a reader that races a writer storing that word with Store64Atomic (the
// redo-log engine's optimistic readers validate such loads afterwards). off
// must be 8-byte aligned.
func (d *Device) Load64Atomic(off int) uint64 {
	v := leWord(atomic.LoadUint64(d.word(off)))
	if d.faultCheck(off, 8) {
		v ^= 0x0101010101010101 * corruptXor
	}
	return v
}

// Store64Atomic is Store64 with the word written in one atomic access; see
// Load64Atomic. off must be 8-byte aligned.
func (d *Device) Store64Atomic(off int, v uint64) {
	d.markStored(off, 8)
	atomic.StoreUint64(d.word(off), leWord(v))
	d.stored(off, 8)
}

// word returns the image word at off for atomic access. The image starts on
// a line boundary, so an 8-byte aligned offset is an aligned address.
func (d *Device) word(off int) *uint64 {
	if off&7 != 0 {
		panic(fmt.Sprintf("pmem: atomic access at unaligned offset %d", off))
	}
	return (*uint64)(unsafe.Pointer(&d.mem[off]))
}

// hostLE reports whether the host's words are little-endian, the image's
// byte order.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// leWord converts between a host-order word and the image's little-endian
// order (the same swap either way).
func leWord(v uint64) uint64 {
	if hostLE {
		return v
	}
	return bits.ReverseBytes64(v)
}

// LoadBytes copies len(dst) bytes starting at off into dst.
func (d *Device) LoadBytes(off int, dst []byte) {
	copy(dst, d.mem[off:off+len(dst)])
	if len(dst) > 0 && d.faultCheck(off, len(dst)) {
		for i := range dst {
			dst[i] ^= corruptXor
		}
	}
}

// Bytes returns the volatile image slice for [off, off+n). The caller must
// respect the same synchronization rules as Load/Store. Intended for bulk
// operations such as the main-to-back copy. A faulted line in the range
// trips the fault machinery, but the slice aliases the image and so cannot
// carry corrupted bytes; callers relying on Bytes must check FaultsTripped.
//
// The slice is valid while d is reachable and no longer: the image of a
// collected device is handed to the next device of its size (image.go).
func (d *Device) Bytes(off, n int) []byte {
	if n > 0 {
		d.faultCheck(off, n)
	}
	return d.mem[off : off+n]
}

// CopyWithin copies n bytes from src to dst inside the region through the
// volatile image, marking destination lines dirty. It is the raw memcpy used
// for the twin-copy replication; callers must still issue Pwb for the
// destination range. A faulted source line corrupts the copied bytes (the
// fault propagates into the destination), so recovery code that ignores the
// trip replicates garbage — and hardened recovery detects the trip instead.
func (d *Device) CopyWithin(dst, src, n int) {
	if n == 0 {
		return
	}
	d.markStored(dst, n)
	if dst+n <= src || src+n <= dst {
		copyAcross(d.mem[dst:dst+n], d.mem[src:src+n])
	} else {
		copy(d.mem[dst:dst+n], d.mem[src:src+n])
	}
	if d.faultCheck(src, n) {
		s := d.mem[dst : dst+n]
		for i := range s {
			s[i] ^= corruptXor
		}
	}
	d.stored(dst, n)
}

// Pwb initiates write-back of the cache line containing off. Under an
// ordered model (CLFLUSH) the line is persisted immediately; otherwise it is
// queued until the next Pfence or Psync. Pwb of a clean, unqueued line is a
// no-op apart from the injected latency, like flushing a clean line.
func (d *Device) Pwb(off int) { d.writeBack(nil, off>>lineShift, 1) }

// PwbRange issues Pwb for every cache line overlapping [off, off+n), in
// ascending order.
func (d *Device) PwbRange(off, n int) {
	if n <= 0 {
		return
	}
	first := off >> lineShift
	d.writeBack(nil, first, (off+n-1)>>lineShift-first+1)
}

// PwbLines issues Pwb for each line number (offset / LineSize) in order.
func (d *Device) PwbLines(lines []int32) { d.writeBack(lines, 0, len(lines)) }

// writeBack is the one write-back routine, over lines[0:n] in order, or
// first, first+1, ... when lines is nil. Hookless, the n write-backs are
// counted at once, pay n × PwbLatency in one spin and move each run of
// consecutive lines a bitmap word at a time. With hooks each line is done in
// turn, so a hook (a crash scheduler) sees the device after each one.
func (d *Device) writeBack(lines []int32, first, n int) {
	if h := d.hooks.Load(); h != nil {
		for i := 0; i < n; i++ {
			l := first + i
			if lines != nil {
				l = int(lines[i])
			}
			pwbs := d.stats.pwbs.Add(1)
			d.model.delayPwb(1)
			d.moveRun(l, l)
			if h.PwbAt != nil {
				h.PwbAt(l << lineShift)
			}
			if h.Pwb != nil {
				h.Pwb(pwbs)
			}
		}
		return
	}
	d.stats.pwbs.Add(uint64(n))
	d.model.delayPwb(n)
	if lines == nil {
		d.moveRun(first, first+n-1)
		return
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && lines[j] == lines[j-1]+1 {
			j++
		}
		d.moveRun(int(lines[i]), int(lines[j-1]))
		i = j
	}
}

// moveRun writes back the dirty lines among first..last, ascending: queued
// for the next fence, or persisted at once under an ordered model.
func (d *Device) moveRun(first, last int) {
	var persisted uint64
	for w := first >> 6; w <= last>>6; w++ {
		m := d.dirty.words[w] & lineMask(w, first, last)
		d.dirty.words[w] &^= m
		if !d.model.OrderedPwb {
			d.queued.addWord(w, m)
			continue
		}
		for ; m != 0; m &= m - 1 {
			d.shadow.drop(w<<6 + bits.TrailingZeros64(m))
			persisted++
		}
	}
	if persisted > 0 {
		d.stats.linesPersisted.Add(persisted)
		d.shadow.settle()
	}
}

// NeedsFence reports whether any write-back is queued and unfenced, i.e.
// whether a Pfence or Psync issued now would do ordering work. Under ordered
// models (CLFLUSH) lines persist at Pwb time and this is always false,
// matching the paper's observation that CLFLUSH needs no fences. Engines use
// it to elide provably-no-op fences; like the data path it must only be
// called from the mutating goroutine.
func (d *Device) NeedsFence() bool { return len(d.queued.Lines()) > 0 }

// Pending reports whether any cache line overlapping [off, off+n) holds
// stores the media may lack: dirty, or queued by Pwb and not yet fenced. A
// line that is not pending reads the same from the volatile view as from the
// media, so recovery may skip it on a byte compare. Mutating goroutine only.
func (d *Device) Pending(off, n int) bool {
	first, last := off>>lineShift, (off+n-1)>>lineShift
	for w := first >> 6; w <= last>>6; w++ { // a bitmap word, 64 lines, at a time
		if (d.dirty.words[w]|d.queued.bits.words[w])&lineMask(w, first, last) != 0 {
			return true
		}
	}
	return false
}

// Pfence orders preceding write-backs: every line queued by Pwb becomes
// persistent before the fence returns.
func (d *Device) Pfence() {
	d.stats.pfences.Add(1)
	d.model.delayPfence()
	d.drainQueue()
}

// Psync blocks until all preceding write-backs are persistent.
func (d *Device) Psync() {
	d.stats.psyncs.Add(1)
	d.model.delayPsync()
	d.drainQueue()
}

// drainQueue is the fence proper: it completes the queued write-backs and
// runs the fence hook. The media now holds each queued line as the image has
// it, stores made after the Pwb included — so a line can be dirty again with
// no shadow entry until its next store.
func (d *Device) drainQueue() {
	lines := d.queued.Lines()
	for i := len(lines) - 1; i >= 0; i-- { // latest first: entries captured in queue order drop off the end, moving nothing
		d.shadow.drop(int(lines[i]))
	}
	d.stats.linesPersisted.Add(uint64(len(lines)))
	d.queued.Reset()
	d.shadow.settle()
	if h := d.hooks.Load(); h != nil && h.Fence != nil {
		h.Fence()
	}
}

// PersistAll force-persists the entire volatile view, as if every line had
// been flushed and fenced: the image is the media, nothing is pending. Used
// when formatting a fresh region.
func (d *Device) PersistAll() {
	d.shadow.reset()
	d.dirty.reset()
	d.queued.Reset()
}

// Persisted returns a copy of the persisted view: what the media holds now.
func (d *Device) Persisted() []byte {
	img := uninitialized(len(d.mem))
	copyAcross(img, d.mem)
	d.shadow.overlay(img)
	return img
}

// DiffChunk is the granule of Differs, and the alignment of the pieces split
// hands to processors, so that no chunk straddles two of them.
const DiffChunk = 4096

// splitMin is the smallest piece split hands to a processor: tens of
// microseconds of copying, against the one or two a goroutine costs to start
// and join. A job below twice this size — a small test device, the shard
// coordinator's log — runs inline and starts none.
const splitMin = 512 << 10

// split runs job over [0, n) in DiffChunk-aligned pieces, one per processor
// (GOMAXPROCS) but none smaller than splitMin, and returns when all are done.
// It is for the loops that scale with a device's size rather than with its
// lines in flight — copying an image, comparing twin copies — whose cost is
// memory bandwidth, more of which one processor alone cannot draw. The job
// must be safe to run on disjoint ranges at once.
func split(n int, job func(lo, hi int)) {
	pieces := min(runtime.GOMAXPROCS(0), n/splitMin)
	if pieces <= 1 {
		job(0, n)
		return
	}
	size := (n/pieces + DiffChunk - 1) &^ (DiffChunk - 1)
	var wg sync.WaitGroup
	for lo := size; lo < n; lo += size {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job(lo, min(lo+size, n))
		}()
	}
	job(0, size)
	wg.Wait()
}

// uninitialized returns n heap bytes without make's clear, for a caller that
// writes each byte before reading it: strings.Builder.Grow allocates without
// it, and the string is dropped unread, so no string ever sees the writes.
func uninitialized(n int) []byte {
	var b strings.Builder
	b.Grow(n)
	b.WriteByte(0)
	return unsafe.Slice(unsafe.StringData(b.String()), n)
}

// copyAcross copies src into dst, which do not overlap, split across
// processors; below twice splitMin it builds no job closure, which escapes.
func copyAcross(dst, src []byte) {
	if len(src) < 2*splitMin {
		copy(dst, src)
		return
	}
	split(len(src), func(lo, hi int) { copy(dst[lo:hi], src[lo:hi]) })
}

// Differs compares [dst, dst+n) with [src, src+n) in DiffChunk-byte chunks,
// the last one partial, and reports for each whether dst needs src's bytes
// there: they differ, or a line of dst's chunk is Pending. It is the bulk of
// recovery's twin comparison, split across processors; only the chunks it
// reports need a closer look. Mutating goroutine only.
func (d *Device) Differs(dst, src, n int) []bool {
	out := make([]bool, (n+DiffChunk-1)/DiffChunk)
	split(n, func(lo, hi int) {
		for c := lo; c < hi; c += DiffChunk {
			end := min(c+DiffChunk, hi)
			out[c/DiffChunk] = !bytes.Equal(d.mem[dst+c:dst+end], d.mem[src+c:src+end]) || d.Pending(dst+c, end-c)
		}
	})
	return out
}

// CrashPolicy controls the fate of not-yet-durable data at a simulated power
// failure.
type CrashPolicy struct {
	// QueuedPersistProb is the probability that a line queued by Pwb but not
	// yet fenced reaches the media anyway (write-backs may have completed
	// before the failure). 0 drops all, 1 persists all.
	QueuedPersistProb float64
	// EvictDirtyProb is the probability that a dirty line that was never
	// flushed reaches the media anyway, modelling cache evictions. Correct
	// algorithms must tolerate any value; 0 is the common deterministic case.
	EvictDirtyProb float64
	// TearWords, when true, applies the above decisions independently per
	// 8-byte word instead of per cache line, modelling word-granularity
	// persistence with torn lines.
	TearWords bool
	// TearPrefix, when true, persists only an 8-byte-aligned prefix of each
	// line selected for persistence — the first k words, 0 <= k <= 8, chosen
	// by Rand — modelling a write-back torn mid-line at the exact failure
	// point. Takes precedence over TearWords.
	TearPrefix bool
	// Rand supplies randomness; nil means a fixed-seed source (deterministic).
	Rand *rand.Rand
}

// DropAll is the deterministic worst case for unfenced data: everything that
// was not fenced is lost.
var DropAll = CrashPolicy{}

// KeepQueued persists everything that was at least queued by a Pwb, the
// deterministic best case.
var KeepQueued = CrashPolicy{QueuedPersistProb: 1}

// applyCrash turns the media contents into the post-failure ones: media(line)
// is where the media bytes of a dirty or queued line live, and receives
// whatever of the line's volatile bytes the policy lets through.
func (d *Device) applyCrash(media func(line int) []byte, p CrashPolicy) {
	rng := p.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	decide := func(prob float64) bool { // certain outcomes draw no randomness
		return prob >= 1 || prob > 0 && rng.Float64() < prob
	}
	persistPartial := func(line int, prob float64) {
		dst, src := media(line), d.mem[line<<lineShift:(line+1)<<lineShift]
		switch {
		case p.TearPrefix:
			if decide(prob) {
				k := rng.Intn(LineSize/8+1) * 8
				copy(dst[:k], src)
			}
		case p.TearWords:
			for w := 0; w < LineSize; w += 8 {
				if decide(prob) {
					copy(dst[w:w+8], src[w:])
				}
			}
		default:
			if decide(prob) {
				copy(dst, src)
			}
		}
	}
	for _, line := range d.queued.Lines() {
		persistPartial(int(line), p.QueuedPersistProb)
	}
	if p.EvictDirtyProb > 0 {
		d.dirty.forEach(func(line int) {
			persistPartial(line, p.EvictDirtyProb)
		})
	}
}

// mediaLine returns where line's media bytes live: its shadow entry, or the
// image itself when the line was written back since its last store.
func (d *Device) mediaLine(line int) []byte {
	if i := int(d.shadow.slot[line]) - 1; i >= 0 {
		return d.shadow.data[i<<lineShift : (i+1)<<lineShift]
	}
	return d.mem[line<<lineShift : (line+1)<<lineShift]
}

// Crash simulates a power failure followed by a restart: the policy decides
// which in-flight lines reached the media, the volatile view is discarded,
// and the region is re-mapped from the media. After Crash the device is
// quiescent and ready for recovery code. The cost is proportional to the
// lines in flight, not to the device.
func (d *Device) Crash(p CrashPolicy) {
	d.applyCrash(d.mediaLine, p)
	if h := d.hooks.Load(); h != nil && h.Crash != nil {
		h.Crash()
	}
	// Restart: the volatile view is re-mapped from the media, and so equals it.
	d.shadow.overlay(d.mem)
	d.PersistAll()
}

// CrashImage returns the media contents a failure at this exact point would
// leave behind under the given policy, without disturbing the device.
// Crash-injection tests capture images at every persistence event of a live
// run and recover each one separately.
func (d *Device) CrashImage(p CrashPolicy) []byte {
	img := d.Persisted()
	d.applyCrash(func(line int) []byte { return img[line<<lineShift : (line+1)<<lineShift] }, p)
	return img
}

// FromImage creates a quiescent device whose volatile and persisted views
// both equal img, as if a machine rebooted with that media content.
func FromImage(img []byte, model Model) *Device {
	if len(img) == 0 || len(img)%LineSize != 0 {
		panic(fmt.Sprintf("pmem: image size %d is not a positive multiple of %d", len(img), LineSize))
	}
	mem := newImage(len(img), false)
	copyAcross(mem, img)
	return newDevice(mem, model)
}

// SaveFile writes the persisted view to path, allowing a region to survive
// process restarts in examples and tools. Stores that have not reached the
// media are not saved.
func (d *Device) SaveFile(path string) error {
	img := d.mem
	if len(d.shadow.lines) > 0 {
		img = d.Persisted()
	}
	err := os.WriteFile(path, img, 0o644)
	runtime.KeepAlive(d) // img may be the image, valid while d is reachable
	if err != nil {
		return fmt.Errorf("pmem: save %s: %w", path, err)
	}
	return nil
}

// LoadFile creates a Device from an image previously written by SaveFile.
// The file is read straight into the device's image.
func LoadFile(path string, model Model) (*Device, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pmem: load %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("pmem: load %s: %w", path, err)
	}
	size := fi.Size()
	if size <= 0 || size%LineSize != 0 {
		return nil, fmt.Errorf("pmem: load %s: image size %d is not a positive multiple of %d", path, size, LineSize)
	}
	d := newDevice(newImage(int(size), false), model)
	if _, err := io.ReadFull(f, d.mem); err != nil {
		return nil, fmt.Errorf("pmem: load %s: %w", path, err)
	}
	return d, nil
}

// spin busy-waits for roughly dur, simulating media latency without yielding
// the processor (matching how the paper injects rdtsc-measured delays).
func spin(dur time.Duration) {
	if dur <= 0 {
		return
	}
	t0 := time.Now()
	for time.Since(t0) < dur {
	}
}
