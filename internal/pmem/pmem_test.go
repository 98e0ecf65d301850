package pmem

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestStoreLoadRoundTrip(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store8(0, 0xAB)
	if got := d.Load8(0); got != 0xAB {
		t.Errorf("Load8 = %#x, want 0xAB", got)
	}
	d.Store16(2, 0xBEEF)
	if got := d.Load16(2); got != 0xBEEF {
		t.Errorf("Load16 = %#x, want 0xBEEF", got)
	}
	d.Store32(4, 0xDEADBEEF)
	if got := d.Load32(4); got != 0xDEADBEEF {
		t.Errorf("Load32 = %#x, want 0xDEADBEEF", got)
	}
	d.Store64(8, 0x0123456789ABCDEF)
	if got := d.Load64(8); got != 0x0123456789ABCDEF {
		t.Errorf("Load64 = %#x, want 0x0123456789ABCDEF", got)
	}
	src := []byte("persistent memory")
	d.StoreBytes(100, src)
	dst := make([]byte, len(src))
	d.LoadBytes(100, dst)
	if !bytes.Equal(src, dst) {
		t.Errorf("LoadBytes = %q, want %q", dst, src)
	}
}

func TestSizeRoundedToLine(t *testing.T) {
	d := New(100, ModelDRAM)
	if d.Size() != 128 {
		t.Errorf("Size = %d, want 128", d.Size())
	}
}

func TestStoreIsNotDurableWithoutFlush(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(0, 42)
	d.Crash(DropAll)
	if got := d.Load64(0); got != 0 {
		t.Errorf("unflushed store survived crash: got %d, want 0", got)
	}
}

func TestPwbAloneIsNotDurableUnderUnorderedModel(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(0, 42)
	d.Pwb(0)
	d.Crash(DropAll)
	if got := d.Load64(0); got != 0 {
		t.Errorf("queued-but-unfenced store survived DropAll crash: got %d, want 0", got)
	}
}

func TestPwbPlusFenceIsDurable(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(0, 42)
	d.Pwb(0)
	d.Pfence()
	d.Crash(DropAll)
	if got := d.Load64(0); got != 42 {
		t.Errorf("fenced store lost at crash: got %d, want 42", got)
	}
}

func TestPsyncDrainsQueue(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(64, 7)
	d.Pwb(64)
	d.Psync()
	d.Crash(DropAll)
	if got := d.Load64(64); got != 7 {
		t.Errorf("psynced store lost at crash: got %d, want 7", got)
	}
}

func TestOrderedPwbIsImmediatelyDurable(t *testing.T) {
	d := New(4096, ModelCLFLUSH)
	d.Store64(0, 42)
	d.Pwb(0)
	// No fence: CLFLUSH is self-ordering.
	d.Crash(DropAll)
	if got := d.Load64(0); got != 42 {
		t.Errorf("CLFLUSH-flushed store lost at crash: got %d, want 42", got)
	}
}

func TestKeepQueuedPolicyPersistsUnfencedPwbs(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(0, 42)
	d.Pwb(0)
	d.Crash(KeepQueued)
	if got := d.Load64(0); got != 42 {
		t.Errorf("KeepQueued dropped a queued line: got %d, want 42", got)
	}
}

func TestCrashDropsOnlyUnfencedLines(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(0, 1) // fenced
	d.Pwb(0)
	d.Pfence()
	d.Store64(128, 2) // queued only
	d.Pwb(128)
	d.Store64(256, 3) // dirty only
	d.Crash(DropAll)
	if got := d.Load64(0); got != 1 {
		t.Errorf("fenced line lost: got %d", got)
	}
	if got := d.Load64(128); got != 0 {
		t.Errorf("queued line survived DropAll: got %d", got)
	}
	if got := d.Load64(256); got != 0 {
		t.Errorf("dirty line survived DropAll: got %d", got)
	}
}

func TestEvictDirtyProbPersistsDirtyLines(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(0, 99) // never flushed
	d.Crash(CrashPolicy{EvictDirtyProb: 1})
	if got := d.Load64(0); got != 99 {
		t.Errorf("eviction policy did not persist dirty line: got %d, want 99", got)
	}
}

func TestTearWordsCanSplitALine(t *testing.T) {
	d := New(4096, ModelDRAM)
	for w := 0; w < 8; w++ {
		d.Store64(w*8, uint64(w+1))
	}
	d.Pwb(0)
	d.Crash(CrashPolicy{
		QueuedPersistProb: 0.5,
		TearWords:         true,
		Rand:              rand.New(rand.NewSource(7)),
	})
	kept, dropped := 0, 0
	for w := 0; w < 8; w++ {
		switch d.Load64(w * 8) {
		case uint64(w + 1):
			kept++
		case 0:
			dropped++
		default:
			t.Fatalf("word %d has impossible value %d", w, d.Load64(w*8))
		}
	}
	if kept == 0 || dropped == 0 {
		t.Errorf("expected a torn line with seed 7: kept=%d dropped=%d", kept, dropped)
	}
}

func TestFenceAfterCrashDoesNotResurrectOldQueue(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(0, 42)
	d.Pwb(0)
	d.Crash(DropAll)
	d.Pfence() // must not persist the pre-crash line
	if got := d.Load64(0); got != 0 {
		t.Errorf("pre-crash queue drained after crash: got %d, want 0", got)
	}
}

func TestLineGranularityFlush(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(0, 1)  // line 0
	d.Store64(64, 2) // line 1
	d.Pwb(0)         // flush only line 0
	d.Pfence()
	d.Crash(DropAll)
	if got := d.Load64(0); got != 1 {
		t.Errorf("line 0 lost: %d", got)
	}
	if got := d.Load64(64); got != 0 {
		t.Errorf("line 1 persisted without pwb: %d", got)
	}
}

func TestFlushPersistsWholeLine(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(0, 1)
	d.Store64(56, 2) // same line, last word
	d.Pwb(8)         // any offset within the line
	d.Pfence()
	d.Crash(DropAll)
	if d.Load64(0) != 1 || d.Load64(56) != 2 {
		t.Errorf("whole line not persisted: %d %d", d.Load64(0), d.Load64(56))
	}
}

func TestPwbOfCleanLineIsNoop(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(0, 1)
	d.Pwb(0)
	d.Pfence()
	before := d.Stats().LinesPersisted
	d.Pwb(0) // clean now
	d.Pfence()
	if after := d.Stats().LinesPersisted; after != before {
		t.Errorf("clean-line pwb persisted data: %d -> %d", before, after)
	}
}

func TestRedundantPwbsQueueLineOnce(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(0, 1)
	d.Pwb(0)
	d.Pwb(0)
	d.Pwb(0)
	d.Pfence()
	if got := d.Stats().LinesPersisted; got != 1 {
		t.Errorf("LinesPersisted = %d, want 1", got)
	}
	if got := d.Stats().Pwbs; got != 3 {
		t.Errorf("Pwbs = %d, want 3", got)
	}
}

func TestStoreAfterPwbBeforeFenceIsVisibleInPersistedLine(t *testing.T) {
	// Real hardware may write back the line at fence time; our simulation
	// snapshots line content when the queue drains, which is one of the
	// legal outcomes. The algorithms never rely on the opposite.
	d := New(4096, ModelDRAM)
	d.Store64(0, 1)
	d.Pwb(0)
	d.Store64(8, 2) // same line, after pwb
	d.Pfence()
	d.Crash(DropAll)
	if got := d.Load64(8); got != 2 {
		t.Errorf("line snapshot at fence missed later store: got %d", got)
	}
}

func TestPwbRangeCoversAllLines(t *testing.T) {
	d := New(4096, ModelDRAM)
	for off := 0; off < 300; off += 8 {
		d.Store64(off, uint64(off+1))
	}
	d.PwbRange(0, 300)
	d.Pfence()
	d.Crash(DropAll)
	for off := 0; off < 300; off += 8 {
		if got := d.Load64(off); got != uint64(off+1) {
			t.Fatalf("offset %d lost: got %d", off, got)
		}
	}
}

func TestStatsCounting(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(0, 1)
	d.Store64(8, 2)
	d.StoreBytes(16, make([]byte, 10))
	d.Pwb(0)
	d.Pfence()
	d.Psync()
	s := d.Stats()
	if s.Stores != 3 {
		t.Errorf("Stores = %d, want 3", s.Stores)
	}
	if s.BytesStored != 26 {
		t.Errorf("BytesStored = %d, want 26", s.BytesStored)
	}
	if s.Pwbs != 1 || s.Pfences != 1 || s.Psyncs != 1 {
		t.Errorf("fence counters = %+v", s)
	}
	if s.LinesPersisted != 1 || s.BytesPersisted != LineSize {
		t.Errorf("persist counters = %+v", s)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Errorf("ResetStats left %+v", d.Stats())
	}
}

func TestCopyWithin(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.StoreBytes(0, []byte("twin-copy"))
	d.CopyWithin(2048, 0, 9)
	got := make([]byte, 9)
	d.LoadBytes(2048, got)
	if string(got) != "twin-copy" {
		t.Errorf("CopyWithin produced %q", got)
	}
	// Destination must be flushable like any store.
	d.PwbRange(2048, 9)
	d.Pfence()
	d.Crash(DropAll)
	d.LoadBytes(2048, got)
	if string(got) != "twin-copy" {
		t.Errorf("copied range not durable: %q", got)
	}
}

func TestMemset(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Memset(10, 0xFF, 20)
	for i := 10; i < 30; i++ {
		if d.Load8(i) != 0xFF {
			t.Fatalf("byte %d = %#x", i, d.Load8(i))
		}
	}
	if d.Load8(9) != 0 || d.Load8(30) != 0 {
		t.Error("Memset wrote outside its range")
	}
}

// TestMemsetFillsStraddledLines fills a range that starts and ends inside a
// line with a non-zero byte, at every length up to a few lines: every byte
// of the range, and none outside it, holds v, and the fill is one store.
func TestMemsetFillsStraddledLines(t *testing.T) {
	const off = LineSize - 5
	for n := 1; n <= 4*LineSize+9; n++ {
		d := New(8*LineSize, ModelDRAM)
		var calls, at, length int
		d.SetHooks(&Hooks{StoreAt: func(o, k int) { calls, at, length = calls+1, o, k }})
		d.Memset(off, 0xA5, n)
		for i := 0; i < d.Size(); i++ {
			want := byte(0)
			if i >= off && i < off+n {
				want = 0xA5
			}
			if got := d.Load8(i); got != want {
				t.Fatalf("n=%d: byte %d = %#x, want %#x", n, i, got, want)
			}
		}
		if st := d.Stats(); st.Stores != 1 || st.BytesStored != uint64(n) || calls != 1 || at != off || length != n {
			t.Fatalf("n=%d: %d stores of %d bytes, %d hook calls on [%d, +%d); want one store of [%d, +%d)",
				n, st.Stores, st.BytesStored, calls, at, length, off, n)
		}
		if !d.Pending(off, n) || !d.Pending(off+n-1, 1) {
			t.Fatalf("n=%d: a line of the range is not pending", n)
		}
	}
}

// TestSaveLoadFileMatchesPersisted round-trips a region with stores in every
// state — persisted, queued, dirty — through a file: the reloaded device's
// image is the saved device's persisted view, byte for byte.
func TestSaveLoadFileMatchesPersisted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "region.pm")
	rng := rand.New(rand.NewSource(7))
	d := New(1<<20, ModelCLWB)
	for i := 0; i < 3000; i++ {
		off := rng.Intn(d.Size() - 256)
		d.Memset(off, byte(rng.Intn(255)+1), rng.Intn(256)+1)
		switch i % 3 {
		case 0:
			d.PwbRange(off, 1)
			d.Pfence()
		case 1:
			d.Pwb(off) // queued, not fenced
		}
	}
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadFile(path, ModelDRAM)
	if err != nil {
		t.Fatal(err)
	}
	want := d.Persisted()
	if !bytes.Equal(d2.Bytes(0, d2.Size()), want) || !bytes.Equal(d2.Persisted(), want) {
		t.Fatal("the reloaded image differs from the saved device's persisted view")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "region.pm")
	d := New(4096, ModelDRAM)
	d.Store64(0, 77)
	d.Pwb(0)
	d.Pfence()
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadFile(path, ModelDRAM)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Load64(0); got != 77 {
		t.Errorf("reloaded region Load64 = %d, want 77", got)
	}
	if d2.Size() != 4096 {
		t.Errorf("reloaded size = %d", d2.Size())
	}
	// Stores that never reached the media are not part of the saved region.
	d.Store64(0, 78)
	d.Store64(LineSize, 99)
	d.Pwb(LineSize) // queued, not fenced
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if d2, err = LoadFile(path, ModelDRAM); err != nil {
		t.Fatal(err)
	}
	if a, b := d2.Load64(0), d2.Load64(LineSize); a != 77 || b != 0 {
		t.Errorf("reloaded region holds %d, %d; the media held 77, 0", a, b)
	}
	if a, b := d.Load64(0), d.Load64(LineSize); a != 78 || b != 99 {
		t.Errorf("SaveFile disturbed the volatile view: %d, %d", a, b)
	}
}

func TestLoadFileRejectsBadImages(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing"), ModelDRAM); err == nil {
		t.Error("LoadFile of missing file succeeded")
	}
	path := filepath.Join(t.TempDir(), "short.pm")
	d := New(LineSize, ModelDRAM)
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Truncate to a non-multiple of the line size.
	data := make([]byte, 10)
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, ModelDRAM); err == nil {
		t.Error("LoadFile of torn image succeeded")
	}
}

func TestPwbHookFiresAndCounts(t *testing.T) {
	d := New(4096, ModelDRAM)
	var seen []uint64
	d.SetHooks(&Hooks{Pwb: func(n uint64) { seen = append(seen, n) }})
	d.Store64(0, 1)
	d.Pwb(0)
	d.Pwb(0)
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("hook saw %v", seen)
	}
}

func TestStoreHookFires(t *testing.T) {
	d := New(4096, ModelDRAM)
	var n uint64
	d.SetHooks(&Hooks{Store: func(c uint64) { n = c }})
	d.Store64(0, 1)
	d.Store8(9, 2)
	if n != 2 {
		t.Errorf("store hook saw %d, want 2", n)
	}
}

func TestFenceHookFires(t *testing.T) {
	d := New(4096, ModelDRAM)
	n := 0
	d.SetHooks(&Hooks{Fence: func() { n++ }})
	d.Store64(0, 1)
	d.Pwb(0)
	d.Pfence()
	d.Psync()
	d.SetHooks(nil)
	d.Pfence()
	if n != 2 {
		t.Errorf("fence hook fired %d times, want 2", n)
	}
}

func TestModelByName(t *testing.T) {
	for _, m := range Models {
		got, ok := ModelByName(m.Name)
		if !ok || got.Name != m.Name {
			t.Errorf("ModelByName(%q) = %+v, %v", m.Name, got, ok)
		}
	}
	if _, ok := ModelByName("nvdimm-z"); ok {
		t.Error("ModelByName accepted unknown name")
	}
	if m, ok := ModelByName("dram"); !ok || m.OrderedPwb {
		t.Errorf("dram model = %+v, %v", m, ok)
	}
}

func TestPersistAll(t *testing.T) {
	d := New(4096, ModelDRAM)
	d.Store64(0, 5)
	d.Store64(512, 6)
	d.PersistAll()
	d.Crash(DropAll)
	if d.Load64(0) != 5 || d.Load64(512) != 6 {
		t.Error("PersistAll did not persist everything")
	}
}

// Property: any sequence of (store, pwb, fence) operations followed by a
// DropAll crash yields a persisted image where every fenced store survives
// and every never-flushed store does not.
func TestQuickDurabilityContract(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		d := New(1<<14, ModelDRAM)
		rng := rand.New(rand.NewSource(seed))
		fenced := map[int]uint64{}   // line -> last value fenced (word 0 of line)
		unfenced := map[int]uint64{} // line with data not yet fenced
		for _, op := range ops {
			line := int(op) % (d.Size() >> 6)
			off := line << 6
			switch rng.Intn(4) {
			case 0, 1:
				v := rng.Uint64() | 1
				d.Store64(off, v)
				unfenced[line] = v
			case 2:
				d.Pwb(off)
			case 3:
				d.Pfence()
				// Everything queued so far is durable. We conservatively
				// track only lines that had pwb after their last store; to
				// keep the model simple, re-derive from the device by
				// fencing after a pwb of each line we know about.
			}
		}
		// Make a final authoritative pass: pwb+fence half the lines.
		for line := range unfenced {
			if line%2 == 0 {
				d.Pwb(line << 6)
			}
		}
		d.Pfence()
		for line, v := range unfenced {
			if line%2 == 0 {
				fenced[line] = v
			}
		}
		d.Crash(DropAll)
		for line, v := range fenced {
			if got := d.Load64(line << 6); got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStore64(b *testing.B) {
	d := New(1<<20, ModelDRAM)
	for i := 0; i < b.N; i++ {
		d.Store64((i*8)%(1<<20-8), uint64(i))
	}
}

func BenchmarkPwbFence(b *testing.B) {
	d := New(1<<20, ModelDRAM)
	for i := 0; i < b.N; i++ {
		off := (i * 64) % (1 << 19)
		d.Store64(off, uint64(i))
		d.Pwb(off)
		d.Pfence()
	}
}

// TestPendingMatchesLineState checks the word-at-a-time Pending against the
// per-line dirty/queued state for ranges straddling bitmap word boundaries.
func TestPendingMatchesLineState(t *testing.T) {
	d := New(256*LineSize, ModelDRAM)
	d.Store8(63*LineSize, 1)  // dirty
	d.Store8(130*LineSize, 1) // queued
	d.Pwb(130 * LineSize)
	d.Store8(200*LineSize+5, 1) // persisted again: not pending
	d.Pwb(200 * LineSize)
	d.Pfence()
	d.Store8(130*LineSize, 2) // dirty again after the fence
	pending := map[int]bool{63: true, 130: true}
	for first := 0; first < 256; first++ {
		for _, lines := range []int{1, 2, 63, 64, 65, 129} {
			last := min(first+lines, 256) - 1
			want := false
			for l := first; l <= last; l++ {
				want = want || pending[l]
			}
			// Unaligned byte bounds inside the first and last line.
			off, end := first*LineSize+7, last*LineSize+9
			if got := d.Pending(off, end-off); got != want {
				t.Fatalf("Pending(lines %d..%d) = %v, want %v", first, last, got, want)
			}
		}
	}
}
