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

func (r *refDevice) size() int { return len(r.mem) }

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

// oraclePair drives two Devices and the reference model with the same
// operations and compares every observable of each device after each. The
// two devices take the two branches of the one write-back routine: the first
// has no hooks, so a run of write-backs is counted, delayed and moved in bulk;
// the second carries a no-op hook bundle, so every line is written back on
// its own.
type oraclePair struct {
	t    *testing.T
	devs []*Device
	r    *refDevice
	step int
	op   string
}

// oraclePaths names oraclePair's devices in failure messages.
var oraclePaths = []string{"bulk", "per-line"}

func newOracle(t *testing.T, size int, m Model) *oraclePair {
	hooked := New(size, m)
	hooked.SetHooks(&Hooks{})
	return &oraclePair{t: t, devs: []*Device{New(size, m), hooked}, r: newRef(size, m)}
}

func (o *oraclePair) failf(format string, args ...any) {
	o.t.Helper()
	o.t.Fatalf("step %d (%s): %s", o.step, o.op, fmt.Sprintf(format, args...))
}

// each applies op to both devices.
func (o *oraclePair) each(op func(d *Device)) {
	for _, d := range o.devs {
		op(d)
	}
}

// policy returns policy i with its own counted source seeded with seed
// (the source is left out of a policy that uses the fixed default).
func policy(i int, seed int64) (CrashPolicy, *countingSource) {
	p, src := oraclePolicies[i].p, &countingSource{Source: rand.NewSource(seed)}
	if !oraclePolicies[i].nilRand {
		p.Rand = rand.New(src)
	}
	return p, src
}

func (o *oraclePair) check(pol int) {
	o.t.Helper()
	r := o.r
	rp, rs := policy(pol, int64(o.step))
	want := r.crashImage(rp)
	for i, d := range o.devs {
		path := oraclePaths[i]
		if !bytes.Equal(d.Bytes(0, d.Size()), r.mem) {
			o.failf("%s: volatile views differ", path)
		}
		if !bytes.Equal(d.Persisted(), r.pm) {
			o.failf("%s: Persisted differs", path)
		}
		if got := d.Stats(); got != r.stats {
			o.failf("%s: Stats = %+v, reference %+v", path, got, r.stats)
		}
		if got, want := d.NeedsFence(), len(r.queue) > 0; got != want {
			o.failf("%s: NeedsFence = %v, reference %v", path, got, want)
		}
		pending := 0
		for l := range r.dirty {
			want := r.dirty[l] || r.queued[l]
			if want {
				pending++
			}
			if got := d.Pending(l*LineSize, LineSize); got != want {
				o.failf("%s: Pending(line %d) = %v, reference %v", path, l, got, want)
			}
		}
		if n := len(d.shadow.lines); n > pending {
			o.failf("%s: %d shadow entries for %d dirty or queued lines", path, n, pending)
		}
		dp, ds := policy(pol, int64(o.step))
		if !bytes.Equal(d.CrashImage(dp), want) {
			o.failf("%s: CrashImage(%s) differs", path, oraclePolicies[pol].name)
		}
		if ds.draws != rs.draws {
			o.failf("%s: CrashImage(%s) drew %d random numbers, reference %d", path, oraclePolicies[pol].name, ds.draws, rs.draws)
		}
	}
}

func (o *oraclePair) store(off int, src []byte) {
	o.each(func(d *Device) {
		switch len(src) {
		case 1:
			d.Store8(off, src[0])
		case 2:
			d.Store16(off, binary.LittleEndian.Uint16(src))
		case 4:
			d.Store32(off, binary.LittleEndian.Uint32(src))
		case 8:
			d.Store64(off, binary.LittleEndian.Uint64(src))
		default:
			d.StoreBytes(off, src)
		}
	})
	o.r.store(off, src)
}

func (o *oraclePair) pwb(off int) { o.each(func(d *Device) { d.Pwb(off) }); o.r.pwb(off) }

func (o *oraclePair) fence(sync bool) {
	if sync {
		o.each((*Device).Psync)
		o.r.stats.Psyncs++
	} else {
		o.each((*Device).Pfence)
		o.r.stats.Pfences++
	}
	o.r.fence()
}

func (o *oraclePair) crash(pol int) {
	seed := int64(o.step) + 1<<32
	rp, rs := policy(pol, seed)
	o.r.crash(rp)
	for i, d := range o.devs {
		dp, ds := policy(pol, seed)
		d.Crash(dp)
		if ds.draws != rs.draws {
			o.failf("%s: Crash(%s) drew %d random numbers, reference %d", oraclePaths[i], oraclePolicies[pol].name, ds.draws, rs.draws)
		}
	}
}

// oracleRegions are the two region shapes every stream runs on. The narrow
// one is a few dozen lines, so streams keep landing on lines that are already
// dirty, already queued, or written back while dirty again. The wide one
// spans four bitmap words, 64 lines each, and its ranges run up to two words
// long, so the word-at-a-time paths of stores and write-backs cross word
// boundaries.
var oracleRegions = []struct {
	name         string
	lines, reach int // region size and longest range op, in lines
}{
	{"narrow", 48, 4},
	{"wide", 4*64 - 8, 2 * 64},
}

// TestDeviceMatchesTwoImageOracle drives the image+shadow device, hookless
// and hooked, and the two-image reference with seeded random operation
// streams, under every model and every crash-policy shape, on both region
// shapes, and compares all observables after each step.
func TestDeviceMatchesTwoImageOracle(t *testing.T) {
	steps := 1500
	if testing.Short() {
		steps = 300
	}
	models := append([]Model{ModelDRAM}, Models...)
	for mi, m := range models {
		m.PwbLatency, m.PfenceLatency, m.PsyncLatency = 0, 0, 0 // behaviour, not timing
		for pi, pol := range oraclePolicies {
			t.Run(m.Name+"/"+pol.name, func(t *testing.T) {
				for ri, reg := range oracleRegions {
					rng := rand.New(rand.NewSource(int64(mi*100 + pi + 1 + ri*10000)))
					runOracle(newOracle(t, reg.lines*LineSize, m), rng, pi, reg.reach*LineSize, steps/(1+ri))
				}
			})
		}
	}
}

// runOracle runs one seeded stream of steps operations on o, ranges up to
// reach bytes long.
func runOracle(o *oraclePair, rng *rand.Rand, pol, reach, steps int) {
	size := o.r.size()
	buf := make([]byte, reach)
	var lines []int32
	for o.step = 0; o.step < steps; o.step++ {
		switch k := rng.Intn(100); {
		case k < 40:
			o.op = "store"
			n := []int{1, 2, 4, 8}[rng.Intn(4)]
			rng.Read(buf[:n])
			o.store(rng.Intn(size-n+1), buf[:n])
		case k < 48:
			o.op = "StoreBytes"
			n := 1 + rng.Intn(reach)
			rng.Read(buf[:n])
			off := rng.Intn(size - n + 1)
			o.each(func(d *Device) { d.StoreBytes(off, buf[:n]) })
			o.r.store(off, buf[:n])
		case k < 53:
			o.op = "Memset"
			n, v := 1+rng.Intn(reach), byte(rng.Intn(256))
			off := rng.Intn(size - n + 1)
			o.each(func(d *Device) { d.Memset(off, v, n) })
			o.r.store(off, bytes.Repeat([]byte{v}, n))
		case k < 58:
			o.op = "CopyWithin"
			n := 1 + rng.Intn(reach)
			dst, src := rng.Intn(size-n+1), rng.Intn(size-n+1)
			o.each(func(d *Device) { d.CopyWithin(dst, src, n) })
			o.r.copyWithin(dst, src, n)
		case k < 74:
			o.op = "Pwb"
			o.pwb(rng.Intn(size))
		case k < 78:
			o.op = "PwbRange"
			n := 1 + rng.Intn(reach)
			off := rng.Intn(size - n + 1)
			o.each(func(d *Device) { d.PwbRange(off, n) })
			for l := off / LineSize; l <= (off+n-1)/LineSize; l++ {
				o.r.pwb(l * LineSize)
			}
		case k < 82:
			// A few ascending runs at random places, which may overlap: the
			// list holds runs, repeats and descents, as a round's
			// first-touch order does.
			o.op = "PwbLines"
			lines = lines[:0]
			for runs := 1 + rng.Intn(3); runs > 0; runs-- {
				n := 1 + rng.Intn(reach/LineSize)
				first := rng.Intn(size/LineSize - n + 1)
				for l := first; l < first+n; l++ {
					lines = append(lines, int32(l))
				}
			}
			o.each(func(d *Device) { d.PwbLines(lines) })
			for _, l := range lines {
				o.r.pwb(int(l) * LineSize)
			}
		case k < 92:
			o.op = "fence"
			o.fence(rng.Intn(2) == 0)
		case k < 93:
			o.op = "PersistAll"
			o.each((*Device).PersistAll)
			o.r.persistAll()
		default:
			o.op = "Crash"
			o.crash(pol)
		}
		o.check(pol)
	}
}

// TestOracleStoreWhileQueued is the directed case the random streams only
// usually hit: a line stored again between its Pwb and the fence. The fence
// must persist the later bytes, and until then a crash must fall back to the
// bytes the media held before the first store — the original shadow.
func TestOracleStoreWhileQueued(t *testing.T) {
	for pi := range oraclePolicies {
		o := newOracle(t, 4*LineSize, ModelCLWB)
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
		for _, d := range o.devs {
			if img := d.CrashImage(DropAll); img[8] != 1 || img[16] != 0 {
				t.Fatalf("DropAll image holds %d,%d; the media had 1,0 before the queued line's stores", img[8], img[16])
			}
		}
		step("fence", func() { o.fence(true) })
		for _, d := range o.devs {
			if p := d.Persisted(); p[8] != 2 || p[16] != 3 {
				t.Fatalf("fence persisted %d,%d, want the later bytes 2,3", p[8], p[16])
			}
			if !d.Pending(0, LineSize) || d.PendingLines() != 0 {
				t.Fatalf("after the fence the line is dirty with nothing to lose: Pending=%v, PendingLines=%d",
					d.Pending(0, LineSize), d.PendingLines())
			}
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
		o := newOracle(t, 16*LineSize, ModelCLWB)
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
		for _, d := range o.devs {
			if n := d.PendingLines(); n != 3 {
				t.Fatalf("PendingLines = %d, want the 3 never-flushed lines", n)
			}
		}
		o.op = "crash"
		o.crash(pi)
		o.check(pi)
	}
}
