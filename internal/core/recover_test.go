package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

const recoverRegion = 1 << 17

// namedPolicy is a crash policy with the name failures report it under.
type namedPolicy struct {
	name   string
	policy pmem.CrashPolicy
}

// recoveryPolicies is one adversary per CrashPolicy knob, so the property
// below meets every shape of half-persisted twin the device can produce.
func recoveryPolicies(rng *rand.Rand) []namedPolicy {
	sub := func() *rand.Rand { return rand.New(rand.NewSource(rng.Int63())) }
	return []namedPolicy{
		{"DropAll", pmem.DropAll},
		{"KeepQueued", pmem.KeepQueued},
		{"TearWords", pmem.CrashPolicy{QueuedPersistProb: 0.5, EvictDirtyProb: 0.3, TearWords: true, Rand: sub()}},
		{"TearPrefix", pmem.CrashPolicy{QueuedPersistProb: 0.7, EvictDirtyProb: 0.3, TearPrefix: true, Rand: sub()}},
		{"EvictDirty", pmem.CrashPolicy{EvictDirtyProb: 0.5, Rand: sub()}},
	}
}

// crashedWorkload runs a random workload of allocations, scattered stores and
// bulk stores on a fresh engine and returns the media a crash at a random
// persistence event of it leaves under policy.
func crashedWorkload(t *testing.T, v Variant, rng *rand.Rand, policy pmem.CrashPolicy) []byte {
	t.Helper()
	e, err := New(recoverRegion, Config{Variant: v})
	if err != nil {
		t.Fatal(err)
	}
	var blocks []ptm.Ptr
	round := func() {
		err := e.Update(func(tx ptm.Tx) error {
			for i, n := 0, 1+rng.Intn(6); i < n; i++ {
				if len(blocks) == 0 || rng.Intn(4) == 0 {
					p, err := tx.Alloc(64 + rng.Intn(4096))
					if err != nil {
						return err
					}
					blocks = append(blocks, p)
					continue
				}
				p := blocks[rng.Intn(len(blocks))]
				if rng.Intn(2) == 0 {
					tx.Store64(p+ptm.Ptr(rng.Intn(8)*8), rng.Uint64())
				} else {
					buf := make([]byte, 1+rng.Intn(64))
					rng.Read(buf)
					tx.StoreBytes(p, buf)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	dev := e.Device()
	var img []byte
	crashAt, n := 1+rng.Intn(150), 0
	tick := func() {
		if n++; n == crashAt {
			img = dev.CrashImage(policy)
		}
	}
	dev.SetHooks(&pmem.Hooks{
		Store: func(uint64) { tick() },
		Pwb:   func(uint64) { tick() },
		Fence: tick,
	})
	for i := 0; i < 6 && img == nil; i++ {
		round()
	}
	dev.SetHooks(nil)
	if img == nil {
		img = dev.CrashImage(policy)
	}
	return img
}

// imageDiff returns the cache lines of the twin prefix in which img's main
// and back copies differ, and the state word the image holds.
func imageDiff(img []byte) (lines int, state uint64) {
	region := int(binary.LittleEndian.Uint64(img[offRegionSize:]))
	wm := min(int(binary.LittleEndian.Uint64(img[offWatermark:])), region)
	main, back := img[headSize:headSize+wm], img[headSize+region:headSize+region+wm]
	for l := 0; l < wm; l += pmem.LineSize {
		end := min(l+pmem.LineSize, wm)
		if !bytes.Equal(main[l:end], back[l:end]) {
			lines++
		}
	}
	return lines, binary.LittleEndian.Uint64(img[offState:])
}

// TestQuickDiffRecoveryMatchesFullCopy is the property behind diff-copy
// recovery: from any crash image, under every crash policy, it leaves the
// media byte-identical to the paper's whole-prefix copy (the FullReplicate
// reference), and pays for exactly what the crash damaged — one pwb per
// differing line plus the state word's line, nothing at all from IDL.
func TestQuickDiffRecoveryMatchesFullCopy(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		rng := rand.New(rand.NewSource(int64(v)))
		states := map[uint64]int{}
		for seed := 0; seed < 12; seed++ {
			for _, np := range recoveryPolicies(rng) {
				name := np.name
				img := crashedWorkload(t, v, rng, np.policy)
				lines, state := imageDiff(img)
				states[state]++

				ref := pmem.FromImage(img, pmem.ModelDRAM)
				if _, err := Open(ref, Config{Variant: v, FullReplicate: true}); err != nil {
					t.Fatalf("seed %d %s: full-copy recovery: %v", seed, name, err)
				}
				dev := pmem.FromImage(img, pmem.ModelDRAM)
				e, err := Open(dev, Config{Variant: v})
				if err != nil {
					t.Fatalf("seed %d %s: diff-copy recovery: %v", seed, name, err)
				}
				if !bytes.Equal(dev.Persisted(), ref.Persisted()) {
					t.Fatalf("seed %d %s (state %d): media after diff-copy recovery differs from full-copy reference",
						seed, name, state)
				}
				want := uint64(0)
				if state != stateIDL {
					want = uint64(lines) + 1
				}
				if got := dev.Stats().Pwbs; got != want {
					t.Fatalf("seed %d %s (state %d): recovery issued %d pwbs, want %d (%d differing lines)",
						seed, name, state, got, want, lines)
				}
				rs := e.RecoveryStats()
				if rs.State != state || (state != stateIDL && rs.Lines != uint64(lines)) {
					t.Fatalf("seed %d %s: RecoveryStats %+v, image state %d with %d differing lines",
						seed, name, rs, state, lines)
				}
			}
		}
		if states[stateMUT] == 0 || states[stateCPY] == 0 {
			t.Fatalf("crash points never hit both recovery arms: states %v", states)
		}
	})
}

// mutImage returns the media of a crash in the middle of a transaction that
// dirtied `extents` separate line runs of main, all of them evicted to the
// media, so recovery has that many extents to repair.
func mutImage(t *testing.T, v Variant, extents int) []byte {
	t.Helper()
	e, err := New(recoverRegion, Config{Variant: v})
	if err != nil {
		t.Fatal(err)
	}
	var p ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(extents * 512)
		tx.SetRoot(0, p)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var img []byte
	dev := e.Device()
	if err := e.Update(func(tx ptm.Tx) error {
		for i := 0; i < extents; i++ {
			tx.StoreBytes(p+ptm.Ptr(i*512), bytes.Repeat([]byte{0xEE}, 100+i))
		}
		img = dev.CrashImage(pmem.CrashPolicy{EvictDirtyProb: 1, QueuedPersistProb: 1})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if lines, state := imageDiff(img); state != stateMUT || lines < extents {
		t.Fatalf("fixture: state %d with %d differing lines, want MUT with >= %d", state, lines, extents)
	}
	return img
}

// TestCrashInsideSyncCopy chains crashes through the diff copy itself: a
// recovery with several extents to repair is crashed at every one of its
// persistence events under every policy, and recovering each of those images
// must end on the same media as one uninterrupted whole-prefix recovery.
func TestCrashInsideSyncCopy(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		img := mutImage(t, v, 6)
		damaged, _ := imageDiff(img)
		ref := pmem.FromImage(img, pmem.ModelDRAM)
		if _, err := Open(ref, Config{Variant: v, FullReplicate: true}); err != nil {
			t.Fatal(err)
		}
		first := pmem.FromImage(img, pmem.ModelDRAM)
		images := captureAll(first, 11, func() {
			if _, err := Open(first, Config{Variant: v}); err != nil {
				t.Fatal(err)
			}
		})
		partial := 0
		for n, mid := range images {
			if left, state := imageDiff(mid); state != stateIDL && left > 0 && left < damaged {
				partial++
			}
			dev := pmem.FromImage(mid, pmem.ModelDRAM)
			if _, err := Open(dev, Config{Variant: v}); err != nil {
				t.Fatalf("image %d: re-recovery: %v", n, err)
			}
			if !bytes.Equal(dev.Persisted(), ref.Persisted()) {
				t.Fatalf("image %d: media after twice-crashed recovery differs from the reference", n)
			}
		}
		if partial == 0 {
			t.Fatalf("none of %d images caught the copy half done", len(images))
		}
	})
}

// TestSyncCopyWritesBackDirtyEqualLine pins the second half of the skip
// rule: a destination line whose volatile bytes already equal the source but
// which the device still holds dirty (its media copy is stale) is written
// back, not skipped on the byte compare.
func TestSyncCopyWritesBackDirtyEqualLine(t *testing.T) {
	img := mutImage(t, RomLog, 3)
	dev := pmem.FromImage(img, pmem.ModelDRAM)
	region := int(dev.Load64(offRegionSize))
	// Make every damaged line of main equal to back in the volatile view
	// only: nothing differs any more, and nothing has reached the media.
	wm := int(dev.Load64(offWatermark))
	dev.CopyWithin(headSize, headSize+region, wm)
	if _, err := Open(dev, Config{Variant: RomLog}); err != nil {
		t.Fatal(err)
	}
	media := dev.Persisted()
	if lines, state := imageDiff(media); state != stateIDL || lines != 0 {
		t.Fatalf("media after recovery: state %d, %d lines still differ — dirty-but-equal lines were skipped", state, lines)
	}
	if _, err := Open(pmem.FromImage(media, pmem.ModelDRAM), Config{Variant: RomLog}); err != nil {
		t.Fatalf("reopen of the recovered media: %v", err)
	}
}

// TestRecoveryBadLineFailsOpen pins that a media fault anywhere under the
// prefix fails Open with the typed error even when the line it sits on is
// equal in both twins and would be skipped by the copy.
func TestRecoveryBadLineFailsOpen(t *testing.T) {
	img := mutImage(t, RomLog, 3)
	region := int(binary.LittleEndian.Uint64(img[offRegionSize:]))
	for _, twin := range []struct {
		name string
		base int
	}{{"source (back)", headSize + region}, {"destination (main)", headSize}} {
		dev := pmem.FromImage(img, pmem.ModelDRAM)
		// The first line of a twin holds no user data and never differs.
		dev.MarkBad(twin.base, false)
		_, err := Open(dev, Config{Variant: RomLog})
		if !errors.Is(err, pmem.ErrMediaFault) {
			t.Errorf("bad line in the %s twin: Open error %v, want pmem.ErrMediaFault", twin.name, err)
		}
	}
}

// bulkImage returns the media of a quiescent RomLog engine whose watermark
// covers about size bytes of random block contents: large enough that
// recovery's chunk comparison is split across processors.
func bulkImage(tb testing.TB, size int) []byte {
	tb.Helper()
	e, err := New(size+size/2, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	block := make([]byte, 60<<10)
	for used := 0; used < size; used += len(block) {
		rng.Read(block)
		if err := e.Update(func(tx ptm.Tx) error {
			p, err := tx.Alloc(len(block))
			if err == nil {
				tx.StoreBytes(p, block)
			}
			return err
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return e.Device().Persisted()
}

// TestSplitRecoveryMatchesSerial pins that splitting the twin comparison
// across processors leaves recovery's device work as the serial walk does
// it: from a MUT image (main repaired from back) and a CPY image (back from
// main) with damage in the first line, at chunk edges, in adjacent lines
// and in the partial last line, RecoveryStats and the sequence of pwb
// offsets equal what a serial line-by-line comparison of the image implies —
// every differing line, ascending, in maximal runs, then the state word.
func TestSplitRecoveryMatchesSerial(t *testing.T) {
	base := bulkImage(t, 3<<20)
	region := int(binary.LittleEndian.Uint64(base[offRegionSize:]))
	wm := min(int(binary.LittleEndian.Uint64(base[offWatermark:])), region)
	damage := []int{0, pmem.DiffChunk - 1, pmem.DiffChunk, pmem.DiffChunk + pmem.LineSize,
		wm / 3, wm/3 + pmem.LineSize, wm/3 + 2*pmem.LineSize, wm / 2, wm - 1}
	for _, state := range []uint64{stateMUT, stateCPY} {
		img := bytes.Clone(base)
		binary.LittleEndian.PutUint64(img[offState:], state)
		dst, src := headSize, headSize+region
		if state == stateCPY {
			dst, src = src, dst
		}
		for _, off := range damage {
			img[dst+off] ^= 0xFF
		}
		var wantPwbs []int
		var want ptm.RecoveryStats
		want.State, want.Compared = state, uint64(wm)
		for l, prev := 0, false; l < wm; l += pmem.LineSize {
			end := min(l+pmem.LineSize, wm)
			differs := !bytes.Equal(img[dst+l:dst+end], img[src+l:src+end])
			if differs {
				wantPwbs = append(wantPwbs, dst+l)
				want.Lines++
				if !prev {
					want.Extents++
				}
			}
			prev = differs
		}
		wantPwbs = append(wantPwbs, offState)

		dev := pmem.FromImage(img, pmem.ModelDRAM)
		var pwbs []int
		dev.SetHooks(&pmem.Hooks{PwbAt: func(off int) { pwbs = append(pwbs, off) }})
		e, err := Open(dev, Config{})
		if err != nil {
			t.Fatal(err)
		}
		got := e.RecoveryStats()
		got.Ns = 0
		if got != want {
			t.Errorf("state %d: RecoveryStats %+v, want %+v", state, got, want)
		}
		if !slices.Equal(pwbs, wantPwbs) {
			t.Errorf("state %d: pwb offsets %v, want %v", state, pwbs, wantPwbs)
		}
	}
}

// BenchmarkOpenMidTransaction times core.Open of a 16 MiB prefix crashed in
// the middle of a transaction — the twin comparison and the repair of the
// few lines the transaction damaged — per MiB of prefix. The device is made
// outside the timing, after the previous one is collected, as a restart
// finds its image already mapped.
func BenchmarkOpenMidTransaction(b *testing.B) {
	img := bulkImage(b, 16<<20)
	binary.LittleEndian.PutUint64(img[offState:], stateMUT)
	wm := int(binary.LittleEndian.Uint64(img[offWatermark:]))
	for i := 0; i < 32; i++ {
		img[headSize+i*(wm/32)] ^= 0xFF
	}
	var dev *pmem.Device
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev = nil
		runtime.GC()
		dev = pmem.FromImage(img, pmem.ModelDRAM)
		b.StartTimer()
		if _, err := Open(dev, Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(float64(wm)/(1<<20)), "ns/MiB")
}
