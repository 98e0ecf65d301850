package pmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// refDevice is the two-image device this package used to be, kept as the
// reference model: a volatile image, a full media image that write-backs copy
// lines into, and per-line dirty/queued flags. Device must be
// indistinguishable from it through every observable.
type refDevice struct {
	mem, pm       []byte
	dirty, queued []bool
	queue         []int
	ordered       bool
	stats         Stats
}

func newRef(size int, m Model) *refDevice {
	return &refDevice{mem: make([]byte, size), pm: make([]byte, size),
		dirty: make([]bool, size/LineSize), queued: make([]bool, size/LineSize), ordered: m.OrderedPwb}
}

func (r *refDevice) store(off int, src []byte) {
	copy(r.mem[off:], src)
	r.markStored(off, len(src))
}

func (r *refDevice) copyWithin(dst, src, n int) {
	copy(r.mem[dst:dst+n], r.mem[src:src+n])
	r.markStored(dst, n)
}

func (r *refDevice) markStored(off, n int) {
	r.stats.Stores++
	r.stats.BytesStored += uint64(n)
	for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
		r.dirty[l] = true
	}
}

func (r *refDevice) pwb(off int) {
	r.stats.Pwbs++
	line := off / LineSize
	if !r.dirty[line] {
		return
	}
	r.dirty[line] = false
	if r.ordered {
		r.persistLine(line)
	} else if !r.queued[line] {
		r.queued[line] = true
		r.queue = append(r.queue, line)
	}
}

func (r *refDevice) fence() {
	for _, line := range r.queue {
		r.queued[line] = false
		r.persistLine(line)
	}
	r.queue = r.queue[:0]
}

func (r *refDevice) persistLine(line int) {
	copy(r.pm[line*LineSize:(line+1)*LineSize], r.mem[line*LineSize:])
	r.stats.LinesPersisted++
	r.stats.BytesPersisted += LineSize
}

func (r *refDevice) persistAll() {
	copy(r.pm, r.mem)
	r.quiesce()
}

func (r *refDevice) quiesce() {
	for l := range r.dirty {
		r.dirty[l], r.queued[l] = false, false
	}
	r.queue = r.queue[:0]
}

// crashImage is the old applyCrash over a copy of the media image: queued
// lines in queue order, then dirty lines ascending, each drawing from p.Rand
// exactly as the policy shape dictates.
func (r *refDevice) crashImage(p CrashPolicy) []byte {
	img := bytes.Clone(r.pm)
	rng := p.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	decide := func(prob float64) bool {
		return prob >= 1 || prob > 0 && rng.Float64() < prob
	}
	partial := func(line int, prob float64) {
		off := line * LineSize
		switch {
		case p.TearPrefix:
			if decide(prob) {
				k := rng.Intn(LineSize/8+1) * 8
				copy(img[off:off+k], r.mem[off:])
			}
		case p.TearWords:
			for w := off; w < off+LineSize; w += 8 {
				if decide(prob) {
					copy(img[w:w+8], r.mem[w:])
				}
			}
		default:
			if decide(prob) {
				copy(img[off:off+LineSize], r.mem[off:])
			}
		}
	}
	for _, line := range r.queue {
		partial(line, p.QueuedPersistProb)
	}
	if p.EvictDirtyProb > 0 {
		for line, d := range r.dirty {
			if d {
				partial(line, p.EvictDirtyProb)
			}
		}
	}
	return img
}

func (r *refDevice) crash(p CrashPolicy) {
	r.pm = r.crashImage(p)
	copy(r.mem, r.pm)
	r.quiesce()
}

// countingSource counts the draws a policy makes, so the oracle can assert
// identical Rand consumption, not merely identical outcomes.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.Source.Int63() }

// oraclePolicies is every policy shape applyCrash branches on. Rand is filled
// in per use (nil in the last one: the fixed-seed default source).
var oraclePolicies = []struct {
	name    string
	p       CrashPolicy
	nilRand bool
}{
	{"DropAll", DropAll, false},
	{"KeepQueued", KeepQueued, false},
	{"Probabilistic", CrashPolicy{QueuedPersistProb: 0.5, EvictDirtyProb: 0.3}, false},
	{"EvictAll", CrashPolicy{EvictDirtyProb: 1}, false},
	{"TearWords", CrashPolicy{QueuedPersistProb: 0.6, EvictDirtyProb: 0.4, TearWords: true}, false},
	{"TearPrefix", CrashPolicy{QueuedPersistProb: 0.7, EvictDirtyProb: 0.5, TearPrefix: true}, false},
	{"TearPrefixKeep", CrashPolicy{QueuedPersistProb: 1, EvictDirtyProb: 1, TearPrefix: true}, false},
	{"DefaultRand", CrashPolicy{QueuedPersistProb: 0.5, EvictDirtyProb: 0.5, TearWords: true}, true},
}

// oraclePair drives a Device and the reference model with the same operations
// and compares every observable after each.
type oraclePair struct {
	t    *testing.T
	d    *Device
	r    *refDevice
	step int
	op   string
}

func (o *oraclePair) failf(format string, args ...any) {
	o.t.Helper()
	o.t.Fatalf("step %d (%s): %s", o.step, o.op, fmt.Sprintf(format, args...))
}

// policies returns the same policy for each side, with its own identically
// seeded, counted source.
func (o *oraclePair) policies(i int, seed int64) (dp, rp CrashPolicy, ds, rs *countingSource) {
	dp, rp = oraclePolicies[i].p, oraclePolicies[i].p
	ds = &countingSource{Source: rand.NewSource(seed)}
	rs = &countingSource{Source: rand.NewSource(seed)}
	if !oraclePolicies[i].nilRand {
		dp.Rand, rp.Rand = rand.New(ds), rand.New(rs)
	}
	return
}

func (o *oraclePair) check(policy int) {
	o.t.Helper()
	d, r := o.d, o.r
	if !bytes.Equal(d.Bytes(0, d.Size()), r.mem) {
		o.failf("volatile views differ")
	}
	if !bytes.Equal(d.Persisted(), r.pm) {
		o.failf("Persisted differs")
	}
	if got := d.Stats(); got != r.stats {
		o.failf("Stats = %+v, reference %+v", got, r.stats)
	}
	if got, want := d.NeedsFence(), len(r.queue) > 0; got != want {
		o.failf("NeedsFence = %v, reference %v", got, want)
	}
	pending := 0
	for l := range r.dirty {
		want := r.dirty[l] || r.queued[l]
		if want {
			pending++
		}
		if got := d.Pending(l*LineSize, LineSize); got != want {
			o.failf("Pending(line %d) = %v, reference %v", l, got, want)
		}
	}
	if n := len(d.shadow.lines); n > pending {
		o.failf("%d shadow entries for %d dirty or queued lines", n, pending)
	}
	dp, rp, ds, rs := o.policies(policy, int64(o.step))
	if !bytes.Equal(d.CrashImage(dp), r.crashImage(rp)) {
		o.failf("CrashImage(%s) differs", oraclePolicies[policy].name)
	}
	if ds.draws != rs.draws {
		o.failf("CrashImage(%s) drew %d random numbers, reference %d", oraclePolicies[policy].name, ds.draws, rs.draws)
	}
}

func (o *oraclePair) store(off int, src []byte) {
	switch len(src) {
	case 1:
		o.d.Store8(off, src[0])
	case 2:
		o.d.Store16(off, binary.LittleEndian.Uint16(src))
	case 4:
		o.d.Store32(off, binary.LittleEndian.Uint32(src))
	case 8:
		o.d.Store64(off, binary.LittleEndian.Uint64(src))
	default:
		o.d.StoreBytes(off, src)
	}
	o.r.store(off, src)
}

func (o *oraclePair) pwb(off int) { o.d.Pwb(off); o.r.pwb(off) }

func (o *oraclePair) fence(sync bool) {
	if sync {
		o.d.Psync()
		o.r.stats.Psyncs++
	} else {
		o.d.Pfence()
		o.r.stats.Pfences++
	}
	o.r.fence()
}

func (o *oraclePair) crash(policy int) {
	dp, rp, ds, rs := o.policies(policy, int64(o.step)+1<<32)
	o.d.Crash(dp)
	o.r.crash(rp)
	if ds.draws != rs.draws {
		o.failf("Crash(%s) drew %d random numbers, reference %d", oraclePolicies[policy].name, ds.draws, rs.draws)
	}
}

// TestDeviceMatchesTwoImageOracle drives the image+shadow device and the
// two-image reference with seeded random operation streams, under every model
// and every crash-policy shape, and compares all observables after each step.
// The region is a few dozen lines so streams keep landing on lines that are
// already dirty, already queued, or written back while dirty again.
func TestDeviceMatchesTwoImageOracle(t *testing.T) {
	const size = 48 * LineSize
	steps := 1500
	if testing.Short() {
		steps = 300
	}
	models := append([]Model{ModelDRAM}, Models...)
	for mi, m := range models {
		m.PwbLatency, m.PfenceLatency, m.PsyncLatency = 0, 0, 0 // behaviour, not timing
		for pi, pol := range oraclePolicies {
			t.Run(m.Name+"/"+pol.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(mi*100 + pi + 1)))
				o := &oraclePair{t: t, d: New(size, m), r: newRef(size, m)}
				buf := make([]byte, 5*LineSize)
				for o.step = 0; o.step < steps; o.step++ {
					switch k := rng.Intn(100); {
					case k < 40:
						o.op = "store"
						n := []int{1, 2, 4, 8}[rng.Intn(4)]
						rng.Read(buf[:n])
						o.store(rng.Intn(size-n+1), buf[:n])
					case k < 48:
						o.op = "StoreBytes"
						n := 1 + rng.Intn(len(buf))
						rng.Read(buf[:n])
						off := rng.Intn(size - n + 1)
						o.d.StoreBytes(off, buf[:n])
						o.r.store(off, buf[:n])
					case k < 53:
						o.op = "Memset"
						n, v := 1+rng.Intn(3*LineSize), byte(rng.Intn(256))
						off := rng.Intn(size - n + 1)
						o.d.Memset(off, v, n)
						o.r.store(off, bytes.Repeat([]byte{v}, n))
					case k < 58:
						o.op = "CopyWithin"
						n := 1 + rng.Intn(4*LineSize)
						dst, src := rng.Intn(size-n+1), rng.Intn(size-n+1)
						o.d.CopyWithin(dst, src, n)
						o.r.copyWithin(dst, src, n)
					case k < 78:
						o.op = "Pwb"
						o.pwb(rng.Intn(size))
					case k < 82:
						o.op = "PwbRange"
						n := 1 + rng.Intn(4*LineSize)
						off := rng.Intn(size - n + 1)
						o.d.PwbRange(off, n)
						for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
							o.r.pwb(l * LineSize)
						}
					case k < 92:
						o.op = "fence"
						o.fence(rng.Intn(2) == 0)
					case k < 93:
						o.op = "PersistAll"
						o.d.PersistAll()
						o.r.persistAll()
					default:
						o.op = "Crash"
						o.crash(pi)
					}
					o.check(pi)
				}
			})
		}
	}
}

// TestOracleStoreWhileQueued is the directed case the random streams only
// usually hit: a line stored again between its Pwb and the fence. The fence
// must persist the later bytes, and until then a crash must fall back to the
// bytes the media held before the first store — the original shadow.
func TestOracleStoreWhileQueued(t *testing.T) {
	for pi := range oraclePolicies {
		o := &oraclePair{t: t, d: New(4*LineSize, ModelCLWB), r: newRef(4*LineSize, ModelCLWB)}
		step := func(op string, f func()) {
			o.op = op
			f()
			o.check(pi)
			o.step++
		}
		step("store", func() { o.store(8, []byte{1, 1, 1, 1, 1, 1, 1, 1}) })
		step("pwb+fence", func() { o.pwb(8); o.fence(false) })
		step("store 2", func() { o.store(8, []byte{2, 2, 2, 2, 2, 2, 2, 2}) })
		step("pwb", func() { o.pwb(8) })
		step("store 3 while queued", func() { o.store(16, []byte{3, 3, 3, 3}) })
		if img := o.d.CrashImage(DropAll); img[8] != 1 || img[16] != 0 {
			t.Fatalf("DropAll image holds %d,%d; the media had 1,0 before the queued line's stores", img[8], img[16])
		}
		step("fence", func() { o.fence(true) })
		if p := o.d.Persisted(); p[8] != 2 || p[16] != 3 {
			t.Fatalf("fence persisted %d,%d, want the later bytes 2,3", p[8], p[16])
		}
		if !o.d.Pending(0, LineSize) || o.d.PendingLines() != 0 {
			t.Fatalf("after the fence the line is dirty with nothing to lose: Pending=%v, PendingLines=%d",
				o.d.Pending(0, LineSize), o.d.PendingLines())
		}
		step("store 4 on the written-back dirty line", func() { o.store(24, []byte{4}) })
		step("crash", func() { o.crash(pi) })
	}
}

// TestOracleDirtyAcrossManyFences keeps lines dirty and never flushed while
// fences drain other lines around them, then crashes: their shadows must
// survive every drain.
func TestOracleDirtyAcrossManyFences(t *testing.T) {
	for pi := range oraclePolicies {
		o := &oraclePair{t: t, d: New(16*LineSize, ModelCLWB), r: newRef(16*LineSize, ModelCLWB)}
		o.op = "dirty, never flushed"
		o.store(3*LineSize, []byte{9, 9, 9, 9, 9, 9, 9, 9})
		o.store(11*LineSize+60, []byte{7, 7, 7, 7, 7, 7, 7, 7}) // spans lines 11 and 12
		for round := 0; round < 200; round++ {
			o.step, o.op = round, "flushed round"
			l := []int{0, 1, 5, 15}[round%4]
			o.store(l*LineSize+round%56, []byte{byte(round), 1, 2, 3, 4, 5, 6, 7})
			if round%3 == 0 {
				o.store(3*LineSize+8+round%48, []byte{byte(round)}) // keep dirtying the unflushed line
			}
			o.pwb(l * LineSize)
			o.fence(round%2 == 0)
			o.check(pi)
		}
		if n := o.d.PendingLines(); n != 3 {
			t.Fatalf("PendingLines = %d, want the 3 never-flushed lines", n)
		}
		o.op = "crash"
		o.crash(pi)
		o.check(pi)
	}
}
