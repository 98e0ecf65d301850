// Package pmem simulates byte-addressable persistent memory with explicit
// persistence primitives, for reproducing persistent-transactional-memory
// algorithms on hardware (and runtimes) that lack flush intrinsics.
//
// A Device holds two images of the same region:
//
//   - the volatile image, standing in for CPU caches plus DRAM, where every
//     store lands immediately; and
//   - the persisted image, standing in for the NVM media, which only receives
//     data through write-backs.
//
// Stores mark 64-byte cache lines dirty. Pwb queues a line for write-back,
// Pfence orders and completes queued write-backs, and Psync additionally
// waits for durability (in this simulation Pfence and Psync both drain the
// queue; they differ only in injected latency, mirroring how SFENCE serves
// both roles on x86). Under the CLFLUSH model, Pwb is self-ordering and
// synchronous and the fences are no-ops, exactly as in the paper's setup.
//
// Crash discards the volatile image and applies an adversarial policy to
// lines that were dirty or queued but not yet fenced, producing the set of
// post-crash images real hardware could produce. Recovery code then runs
// against the surviving persisted image.
//
// The data path (loads, stores, write-backs) is deliberately unsynchronized:
// the transactional layers above guarantee that at most one mutator runs at a
// time and that readers never race with the mutator on the same locations,
// matching the C++ memory-model assumptions of the original algorithms.
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
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"
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
	LinesPersisted uint64 // cache lines actually written to the persisted image
	BytesPersisted uint64 // bytes written to the persisted image
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
	bytesPersisted atomic.Uint64
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
	// persisted image but before the volatile image is discarded, so an
	// observer can diff the two views at the exact failure point.
	Crash func()
	// Fault is called when a load trips a media-fault line (MarkBad), with
	// the offset of the faulting access. Auditors use it to keep forensics
	// of every detected media error.
	Fault func(off int)
}

// Device is a simulated persistent-memory region. The zero value is not
// usable; create one with New.
type Device struct {
	mem    []byte // volatile image: caches + DRAM
	pm     []byte // persisted image: NVM media
	dirty  bitmap // stored but not yet queued for write-back
	queued bitmap // queued by Pwb, not yet fenced
	// queuedLines tracks the order in which lines were queued so that fences
	// can drain them without scanning the whole bitmap.
	queuedLines []int64
	model       Model
	stats       devStats
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
	return newDevice(make([]byte, size), make([]byte, size), model)
}

func newDevice(mem, pm []byte, model Model) *Device {
	lines := len(mem) >> lineShift
	return &Device{mem: mem, pm: pm, dirty: newBitmap(lines), queued: newBitmap(lines), model: model}
}

// Size returns the size of the region in bytes.
func (d *Device) Size() int { return len(d.mem) }

// Model returns the current persistence model.
func (d *Device) Model() Model { return d.model }

// SetModel replaces the persistence model. Intended for parameter sweeps at
// quiescent points.
func (d *Device) SetModel(m Model) { d.model = m }

// Stats returns a consistent-enough snapshot of the event counters: each
// counter is read atomically, so Stats is safe against concurrent
// instrumented stores (individual counters may be skewed by in-flight
// operations; snapshot at quiescent points for exact cross-counter ratios).
func (d *Device) Stats() Stats {
	return Stats{
		Stores:         d.stats.stores.Load(),
		BytesStored:    d.stats.bytesStored.Load(),
		Pwbs:           d.stats.pwbs.Load(),
		Pfences:        d.stats.pfences.Load(),
		Psyncs:         d.stats.psyncs.Load(),
		LinesPersisted: d.stats.linesPersisted.Load(),
		BytesPersisted: d.stats.bytesPersisted.Load(),
	}
}

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
	d.stats.bytesPersisted.Store(0)
}

// SetHooks atomically installs the hook bundle (nil removes it), replacing
// whatever was installed before. Safe to call while other goroutines drive
// the data path. This is the single attach point for schedulers and crash
// harnesses; metrics use obs.Instrument, which reads the atomic counters
// and leaves this slot free.
func (d *Device) SetHooks(h *Hooks) { d.hooks.Store(h) }

func (d *Device) markStored(off, n int) {
	stores := d.stats.stores.Add(1)
	d.stats.bytesStored.Add(uint64(n))
	first := off >> lineShift
	last := (off + n - 1) >> lineShift
	for l := first; l <= last; l++ {
		d.dirty.set(l)
	}
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
	d.mem[off] = v
	d.markStored(off, 1)
}

// Store16 writes a little-endian 16-bit value at off.
func (d *Device) Store16(off int, v uint16) {
	d.mem[off] = byte(v)
	d.mem[off+1] = byte(v >> 8)
	d.markStored(off, 2)
}

// Store32 writes a little-endian 32-bit value at off.
func (d *Device) Store32(off int, v uint32) {
	_ = d.mem[off+3]
	d.mem[off] = byte(v)
	d.mem[off+1] = byte(v >> 8)
	d.mem[off+2] = byte(v >> 16)
	d.mem[off+3] = byte(v >> 24)
	d.markStored(off, 4)
}

// Store64 writes a little-endian 64-bit value at off.
func (d *Device) Store64(off int, v uint64) {
	_ = d.mem[off+7]
	d.mem[off] = byte(v)
	d.mem[off+1] = byte(v >> 8)
	d.mem[off+2] = byte(v >> 16)
	d.mem[off+3] = byte(v >> 24)
	d.mem[off+4] = byte(v >> 32)
	d.mem[off+5] = byte(v >> 40)
	d.mem[off+6] = byte(v >> 48)
	d.mem[off+7] = byte(v >> 56)
	d.markStored(off, 8)
}

// StoreBytes copies src into the region at off.
func (d *Device) StoreBytes(off int, src []byte) {
	if len(src) == 0 {
		return
	}
	copy(d.mem[off:], src)
	d.markStored(off, len(src))
}

// Memset fills n bytes at off with v.
func (d *Device) Memset(off int, v byte, n int) {
	if n == 0 {
		return
	}
	s := d.mem[off : off+n]
	for i := range s {
		s[i] = v
	}
	d.markStored(off, n)
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
	v := uint16(d.mem[off]) | uint16(d.mem[off+1])<<8
	if d.faultCheck(off, 2) {
		v ^= corruptXor | corruptXor<<8
	}
	return v
}

// Load32 reads a little-endian 32-bit value at off.
func (d *Device) Load32(off int) uint32 {
	_ = d.mem[off+3]
	v := uint32(d.mem[off]) | uint32(d.mem[off+1])<<8 |
		uint32(d.mem[off+2])<<16 | uint32(d.mem[off+3])<<24
	if d.faultCheck(off, 4) {
		v ^= 0x01010101 * corruptXor
	}
	return v
}

// Load64 reads a little-endian 64-bit value at off.
func (d *Device) Load64(off int) uint64 {
	_ = d.mem[off+7]
	v := uint64(d.mem[off]) | uint64(d.mem[off+1])<<8 |
		uint64(d.mem[off+2])<<16 | uint64(d.mem[off+3])<<24 |
		uint64(d.mem[off+4])<<32 | uint64(d.mem[off+5])<<40 |
		uint64(d.mem[off+6])<<48 | uint64(d.mem[off+7])<<56
	if d.faultCheck(off, 8) {
		v ^= 0x0101010101010101 * corruptXor
	}
	return v
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
	copy(d.mem[dst:dst+n], d.mem[src:src+n])
	if d.faultCheck(src, n) {
		s := d.mem[dst : dst+n]
		for i := range s {
			s[i] ^= corruptXor
		}
	}
	d.markStored(dst, n)
}

// Pwb initiates write-back of the cache line containing off. Under an
// ordered model (CLFLUSH) the line is persisted immediately; otherwise it is
// queued until the next Pfence or Psync. Pwb of a clean, unqueued line is a
// no-op apart from the injected latency, like flushing a clean line.
func (d *Device) Pwb(off int) {
	pwbs := d.stats.pwbs.Add(1)
	d.model.delayPwb()
	line := off >> lineShift
	if d.dirty.test(line) {
		d.dirty.clear(line)
		if d.model.OrderedPwb {
			d.persistLine(line)
		} else if !d.queued.test(line) {
			d.queued.set(line)
			d.queuedLines = append(d.queuedLines, int64(line))
		}
	}
	if h := d.hooks.Load(); h != nil {
		if h.PwbAt != nil {
			h.PwbAt(line << lineShift)
		}
		if h.Pwb != nil {
			h.Pwb(pwbs)
		}
	}
}

// PwbRange issues Pwb for every cache line overlapping [off, off+n).
func (d *Device) PwbRange(off, n int) {
	if n <= 0 {
		return
	}
	first := off >> lineShift
	last := (off + n - 1) >> lineShift
	for l := first; l <= last; l++ {
		d.Pwb(l << lineShift)
	}
}

// NeedsFence reports whether any write-back is queued and unfenced, i.e.
// whether a Pfence or Psync issued now would do ordering work. Under ordered
// models (CLFLUSH) lines persist at Pwb time and this is always false,
// matching the paper's observation that CLFLUSH needs no fences. Engines use
// it to elide provably-no-op fences; like the data path it must only be
// called from the mutating goroutine.
func (d *Device) NeedsFence() bool { return len(d.queuedLines) > 0 }

// Pending reports whether any cache line overlapping [off, off+n) holds
// stores the media may lack: dirty, or queued by Pwb and not yet fenced. A
// line that is not pending reads the same from the volatile view as from the
// media, so recovery may skip it on a byte compare. Mutating goroutine only.
func (d *Device) Pending(off, n int) bool {
	first, last := off>>lineShift, (off+n-1)>>lineShift
	for w := first >> 6; w <= last>>6; w++ { // a bitmap word, 64 lines, at a time
		mask := ^uint64(0)
		if w == first>>6 {
			mask &= ^uint64(0) << uint(first&63)
		}
		if w == last>>6 {
			mask &= ^uint64(0) >> uint(63-last&63)
		}
		if (d.dirty.words[w]|d.queued.words[w])&mask != 0 {
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
	if h := d.hooks.Load(); h != nil && h.Fence != nil {
		h.Fence()
	}
}

// Psync blocks until all preceding write-backs are persistent.
func (d *Device) Psync() {
	d.stats.psyncs.Add(1)
	d.model.delayPsync()
	d.drainQueue()
	if h := d.hooks.Load(); h != nil && h.Fence != nil {
		h.Fence()
	}
}

func (d *Device) drainQueue() {
	for _, l := range d.queuedLines {
		line := int(l)
		if d.queued.test(line) {
			d.queued.clear(line)
			d.persistLine(line)
		}
	}
	d.queuedLines = d.queuedLines[:0]
}

func (d *Device) persistLine(line int) {
	off := line << lineShift
	copy(d.pm[off:off+LineSize], d.mem[off:off+LineSize])
	d.stats.linesPersisted.Add(1)
	d.stats.bytesPersisted.Add(LineSize)
}

// PersistAll force-persists the entire volatile image, as if every line had
// been flushed and fenced. Used when formatting a fresh region.
func (d *Device) PersistAll() {
	copy(d.pm, d.mem)
	d.dirty.reset()
	d.queued.reset()
	d.queuedLines = d.queuedLines[:0]
}

// Persisted returns a copy of the persisted image, for inspection in tests.
func (d *Device) Persisted() []byte {
	out := make([]byte, len(d.pm))
	copy(out, d.pm)
	return out
}

// PersistedBytes returns the persisted image slice for [off, off+n) without
// copying. The caller must treat it as read-only and respect the same
// synchronization rules as the data path; auditors use it to diff individual
// cache lines against the volatile view.
func (d *Device) PersistedBytes(off, n int) []byte { return d.pm[off : off+n] }

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

// applyCrash writes the post-failure media contents into img (which must
// start as a copy of the persisted image), consuming no device state.
func (d *Device) applyCrash(img []byte, p CrashPolicy) {
	rng := p.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	decide := func(prob float64) bool {
		if prob <= 0 {
			return false
		}
		if prob >= 1 {
			return true
		}
		return rng.Float64() < prob
	}
	persistPartial := func(line int, prob float64) {
		off := line << lineShift
		switch {
		case p.TearPrefix:
			if decide(prob) {
				k := rng.Intn(LineSize/8+1) * 8
				copy(img[off:off+k], d.mem[off:off+k])
			}
		case p.TearWords:
			for w := 0; w < LineSize; w += 8 {
				if decide(prob) {
					copy(img[off+w:off+w+8], d.mem[off+w:off+w+8])
				}
			}
		default:
			if decide(prob) {
				copy(img[off:off+LineSize], d.mem[off:off+LineSize])
			}
		}
	}
	for _, l := range d.queuedLines {
		line := int(l)
		if d.queued.test(line) {
			persistPartial(line, p.QueuedPersistProb)
		}
	}
	if p.EvictDirtyProb > 0 {
		d.dirty.forEach(func(line int) {
			persistPartial(line, p.EvictDirtyProb)
		})
	}
}

// Crash simulates a power failure followed by a restart: the policy decides
// which in-flight lines reached the media, the volatile image is discarded,
// and the region is re-mapped from the persisted image. After Crash the
// device is quiescent and ready for recovery code.
func (d *Device) Crash(p CrashPolicy) {
	d.applyCrash(d.pm, p)
	if h := d.hooks.Load(); h != nil && h.Crash != nil {
		h.Crash()
	}
	d.dirty.reset()
	d.queued.reset()
	d.queuedLines = d.queuedLines[:0]
	// Restart: the volatile image is re-mapped from the media.
	copy(d.mem, d.pm)
}

// CrashImage returns the media contents a failure at this exact point would
// leave behind under the given policy, without disturbing the device.
// Crash-injection tests capture images at every persistence event of a live
// run and recover each one separately.
func (d *Device) CrashImage(p CrashPolicy) []byte {
	img := make([]byte, len(d.pm))
	copy(img, d.pm)
	d.applyCrash(img, p)
	return img
}

// FromImage creates a quiescent device whose volatile and persisted views
// both equal img, as if a machine rebooted with that media content.
func FromImage(img []byte, model Model) *Device {
	if len(img) == 0 || len(img)%LineSize != 0 {
		panic(fmt.Sprintf("pmem: image size %d is not a positive multiple of %d", len(img), LineSize))
	}
	// One allocate-and-copy per view: New would zero both first.
	return newDevice(bytes.Clone(img), bytes.Clone(img), model)
}

// SaveFile writes the persisted image to path, allowing a region to survive
// process restarts in examples and tools.
func (d *Device) SaveFile(path string) error {
	if err := os.WriteFile(path, d.pm, 0o644); err != nil {
		return fmt.Errorf("pmem: save %s: %w", path, err)
	}
	return nil
}

// LoadFile creates a Device from an image previously written by SaveFile.
func LoadFile(path string, model Model) (*Device, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pmem: load %s: %w", path, err)
	}
	if len(data) == 0 || len(data)%LineSize != 0 {
		return nil, fmt.Errorf("pmem: load %s: image size %d is not a positive multiple of %d", path, len(data), LineSize)
	}
	// The buffer just read becomes the media view; the volatile view is its copy.
	return newDevice(bytes.Clone(data), data, model), nil
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
