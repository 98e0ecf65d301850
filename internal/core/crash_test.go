package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

const crashRegion = 1 << 15 // small region keeps image captures cheap

// crashPolicies is the adversary set every persistence point is tested
// against: lose everything unfenced, keep everything queued, and a torn
// randomized mix (including random eviction of never-flushed lines).
func crashPolicies(seed int64) []pmem.CrashPolicy {
	return []pmem.CrashPolicy{
		pmem.DropAll,
		pmem.KeepQueued,
		{QueuedPersistProb: 0.5, EvictDirtyProb: 0.2, TearWords: true,
			Rand: rand.New(rand.NewSource(seed))},
	}
}

// captureAll arms hooks that snapshot a crash image at every store, pwb and
// fence while fn runs, under each policy.
func captureAll(dev *pmem.Device, seed int64, fn func()) [][]byte {
	var images [][]byte
	capture := func() {
		for _, pol := range crashPolicies(seed) {
			images = append(images, dev.CrashImage(pol))
		}
	}
	dev.SetHooks(&pmem.Hooks{
		Store: func(uint64) { capture() },
		Pwb:   func(uint64) { capture() },
		Fence: capture,
	})
	defer dev.SetHooks(nil)
	fn()
	capture() // final quiescent point
	return images
}

// TestCrashAtomicityEveryPersistencePoint is the central recovery test: a
// transaction mutating several distant locations (and allocating) is
// crashed at every persistence event under every adversary policy; after
// recovery the persistent state must be entirely pre-transaction or
// entirely post-transaction.
func TestCrashAtomicityEveryPersistencePoint(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e, err := New(crashRegion, Config{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		var p ptm.Ptr
		if err := e.Update(func(tx ptm.Tx) error {
			var err error
			p, err = tx.Alloc(4096)
			if err != nil {
				return err
			}
			tx.SetRoot(0, p)
			for i := 0; i < 4096; i += 512 {
				tx.Store64(p+ptm.Ptr(i), 100)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		images := captureAll(e.Device(), 42, func() {
			err := e.Update(func(tx ptm.Tx) error {
				for i := 0; i < 4096; i += 512 {
					tx.Store64(p+ptm.Ptr(i), 200)
				}
				q, err := tx.Alloc(128)
				if err != nil {
					return err
				}
				tx.Store64(q, 777)
				tx.SetRoot(1, q)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		})
		if len(images) < 20 {
			t.Fatalf("only %d crash images captured", len(images))
		}
		for n, img := range images {
			re, err := Open(pmem.FromImage(img, pmem.ModelDRAM), Config{Variant: v})
			if err != nil {
				t.Fatalf("image %d: recovery failed: %v", n, err)
			}
			if err := re.Read(func(tx ptm.Tx) error {
				base := tx.Root(0)
				first := tx.Load64(base)
				if first != 100 && first != 200 {
					return fmt.Errorf("impossible value %d", first)
				}
				for i := 0; i < 4096; i += 512 {
					if got := tx.Load64(base + ptm.Ptr(i)); got != first {
						return fmt.Errorf("torn transaction: slot %d = %d, first = %d", i, got, first)
					}
				}
				q := tx.Root(1)
				if first == 100 && !q.IsNil() {
					return fmt.Errorf("pre-state values but root 1 = %d", q)
				}
				if first == 200 {
					if q.IsNil() {
						return fmt.Errorf("post-state values but root 1 nil")
					}
					if got := tx.Load64(q); got != 777 {
						return fmt.Errorf("allocated object holds %d", got)
					}
				}
				return nil
			}); err != nil {
				t.Fatalf("image %d: %v", n, err)
			}
			if err := re.CheckHeap(); err != nil {
				t.Fatalf("image %d: heap corrupt after recovery: %v", n, err)
			}
		}
	})
}

// Crash during recovery itself must be recoverable (recovery is
// idempotent).
func TestCrashDuringRecovery(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e, err := New(crashRegion, Config{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		var p ptm.Ptr
		e.Update(func(tx ptm.Tx) error {
			var err error
			p, err = tx.Alloc(256)
			tx.SetRoot(0, p)
			tx.Store64(p, 1)
			return err
		})
		// Produce a mid-transaction (MUT) crash image.
		var mutImg []byte
		dev := e.Device()
		dev.SetHooks(&pmem.Hooks{Store: func(n uint64) {
			if mutImg == nil && dev.Load64(offState) == stateMUT {
				mutImg = dev.CrashImage(pmem.DropAll)
			}
		}})
		e.Update(func(tx ptm.Tx) error {
			tx.Store64(p, 2)
			return nil
		})
		dev.SetHooks(nil)
		if mutImg == nil {
			t.Fatal("no MUT-state image captured")
		}
		// Crash the recovery at each of its persistence events.
		rdev := pmem.FromImage(mutImg, pmem.ModelDRAM)
		images := captureAll(rdev, 7, func() {
			if _, err := Open(rdev, Config{Variant: v}); err != nil {
				t.Fatal(err)
			}
		})
		for n, img := range images {
			re, err := Open(pmem.FromImage(img, pmem.ModelDRAM), Config{Variant: v})
			if err != nil {
				t.Fatalf("image %d: %v", n, err)
			}
			re.Read(func(tx ptm.Tx) error {
				if got := tx.Load64(tx.Root(0)); got != 1 && got != 2 {
					t.Errorf("image %d: value %d after twice-crashed recovery", n, got)
				}
				return nil
			})
		}
	})
}

// A rolled-back transaction followed by a crash must recover to the
// pre-transaction state.
func TestCrashAfterRollback(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e, err := New(crashRegion, Config{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		var p ptm.Ptr
		e.Update(func(tx ptm.Tx) error {
			var err error
			p, err = tx.Alloc(64)
			tx.SetRoot(0, p)
			tx.Store64(p, 11)
			return err
		})
		e.Update(func(tx ptm.Tx) error {
			tx.Store64(p, 22)
			return fmt.Errorf("user abort")
		})
		img := e.Device().CrashImage(pmem.DropAll)
		re, err := Open(pmem.FromImage(img, pmem.ModelDRAM), Config{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		re.Read(func(tx ptm.Tx) error {
			if got := tx.Load64(tx.Root(0)); got != 11 {
				t.Errorf("value after rollback+crash = %d, want 11", got)
			}
			return nil
		})
	})
}

// Random workload with a crash after a random transaction count: the
// recovered state must equal the state after some committed prefix — and
// because crashes only happen between Update calls here, exactly the full
// committed history.
func TestCrashAfterRandomWorkload(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		for seed := int64(0); seed < 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e, err := New(crashRegion, Config{Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			const slots = 16
			var arr ptm.Ptr
			e.Update(func(tx ptm.Tx) error {
				var err error
				arr, err = tx.Alloc(slots * 8)
				tx.SetRoot(0, arr)
				return err
			})
			model := make([]uint64, slots)
			n := 2 + rng.Intn(20)
			for i := 0; i < n; i++ {
				j, val := rng.Intn(slots), rng.Uint64()
				model[j] = val
				e.Update(func(tx ptm.Tx) error {
					tx.Store64(arr+ptm.Ptr(j*8), val)
					return nil
				})
			}
			img := e.Device().CrashImage(pmem.CrashPolicy{
				QueuedPersistProb: rng.Float64(),
				EvictDirtyProb:    rng.Float64() * 0.5,
				TearWords:         true,
				Rand:              rng,
			})
			re, err := Open(pmem.FromImage(img, pmem.ModelDRAM), Config{Variant: v})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			re.Read(func(tx ptm.Tx) error {
				a := tx.Root(0)
				for j := 0; j < slots; j++ {
					if got := tx.Load64(a + ptm.Ptr(j*8)); got != model[j] {
						t.Errorf("seed %d slot %d: %d, want %d", seed, j, got, model[j])
					}
				}
				return nil
			})
		}
	})
}

// Crash during initial format, at EVERY persistence event under every
// adversary policy, must leave the device either fully unformatted (the
// magic never became durable: the next Open restarts from scratch) or fully
// formatted — never half-formatted. This is the failure-atomicity claim the
// comment on format() makes.
func TestCrashDuringFormat(t *testing.T) {
	dev := pmem.New(headSize+2*crashRegion, pmem.ModelDRAM)
	images := captureAll(dev, 3, func() {
		if _, err := Open(dev, Config{Variant: RomLog}); err != nil {
			t.Fatal(err)
		}
	})
	if len(images) < 30 {
		t.Fatalf("only %d format crash images", len(images))
	}
	formatted := 0
	for n, img := range images {
		rd := pmem.FromImage(img, pmem.ModelDRAM)
		if rd.Load64(offMagic) == magicValue {
			formatted++
			// Magic durable ⇒ everything before it must be too: the header
			// checksum must verify and recovery must be a no-op from IDL.
			if sum := headerChecksum(rd.Load64(offVersion), rd.Load64(offRegionSize)); rd.Load64(offHeadSum) != sum {
				t.Fatalf("image %d: magic durable but checksum torn", n)
			}
		}
		re, err := Open(rd, Config{Variant: RomLog})
		if err != nil {
			t.Fatalf("image %d: %v", n, err)
		}
		if err := re.Update(func(tx ptm.Tx) error {
			p, err := tx.Alloc(32)
			if err == nil {
				tx.Store64(p, 1)
			}
			return err
		}); err != nil {
			t.Fatalf("image %d: engine unusable after format crash: %v", n, err)
		}
		if err := re.CheckHeap(); err != nil {
			t.Fatalf("image %d: heap corrupt after format crash: %v", n, err)
		}
	}
	t.Logf("%d format crash images verified (%d already formatted)", len(images), formatted)
}

// A torn (unrecognized) state word must take the conservative default
// recovery arm — restore main from back and return to IDL — not silently
// skip reconciliation.
func TestRecoverForgedStateWord(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e, err := New(crashRegion, Config{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		var p ptm.Ptr
		if err := e.Update(func(tx ptm.Tx) error {
			var err error
			p, err = tx.Alloc(64)
			tx.SetRoot(0, p)
			tx.Store64(p, 41)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		// Forge a garbage state word (no valid IDL/MUT/CPY encoding) and
		// make it durable, simulating a sub-word tear of the state line.
		dev := e.Device()
		dev.Store64(offState, 0xDEADBEEFDEADBEEF)
		// Also scribble on main beyond the committed state: the default arm
		// must roll main back from back.
		dev.Store64(headSize+int(p), 999)
		dev.PersistAll()

		re, err := Open(pmem.FromImage(dev.Persisted(), pmem.ModelDRAM), Config{Variant: v})
		if err != nil {
			t.Fatalf("recovery with forged state word failed: %v", err)
		}
		if got := re.Device().Load64(offState); got != stateIDL {
			t.Errorf("state after recovery = %#x, want IDL", got)
		}
		if off := re.Verify(); off >= 0 {
			t.Errorf("twin copies diverge at %d after forged-state recovery", off)
		}
		re.Read(func(tx ptm.Tx) error {
			if got := tx.Load64(tx.Root(0)); got != 41 {
				t.Errorf("value = %d after forged-state recovery, want 41 (rolled back)", got)
			}
			return nil
		})
		// The engine must keep working.
		if err := re.Update(func(tx ptm.Tx) error {
			tx.Store64(re.wtx.Root(0), 42)
			return nil
		}); err != nil {
			t.Errorf("engine unusable after forged-state recovery: %v", err)
		}
	})
}

// Torn head metadata under an intact magic must be reported as the typed
// ErrCorruptHeader, not interpreted as layout.
func TestOpenTornHeader(t *testing.T) {
	e, err := New(crashRegion, Config{Variant: RomLog})
	if err != nil {
		t.Fatal(err)
	}
	dev := e.Device()
	for _, corrupt := range []struct {
		name string
		off  int
	}{
		{"region size", offRegionSize},
		{"version", offVersion},
		{"checksum", offHeadSum},
	} {
		img := dev.Persisted()
		d2 := pmem.FromImage(img, pmem.ModelDRAM)
		d2.Store64(corrupt.off, d2.Load64(corrupt.off)^0xFF00FF00FF00FF00)
		d2.PersistAll()
		_, err := Open(d2, Config{Variant: RomLog})
		if err == nil {
			t.Fatalf("%s torn: Open succeeded silently", corrupt.name)
		}
		if !errors.Is(err, ErrCorruptHeader) {
			t.Errorf("%s torn: error %v, want ErrCorruptHeader", corrupt.name, err)
		}
		if !errors.Is(err, ptm.ErrCorruptHeader) {
			t.Errorf("%s torn: error does not match ptm.ErrCorruptHeader", corrupt.name)
		}
	}
}

// TestBinmapRollbackAndCrash pins the allocator's binmap to the transaction
// (§4.4): a transaction that takes the only chunk of a bin, clearing the
// bin's binmap bit, and then fails must restore the bit with the chunk, so
// the heap stays sound and the next allocation of that size reuses the chunk
// instead of growing the heap. The same holds after a crash at every
// persistence event of the failing transaction, its rollback included.
func TestBinmapRollbackAndCrash(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e, err := New(crashRegion, Config{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		var p ptm.Ptr
		if err := e.Update(func(tx ptm.Tx) error {
			var err error
			if p, err = tx.Alloc(64); err != nil {
				return err
			}
			barrier, err := tx.Alloc(16) // keeps p's chunk out of the wilderness
			tx.SetRoot(0, barrier)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.Update(func(tx ptm.Tx) error { return tx.Free(p) }); err != nil {
			t.Fatal(err)
		}
		top := e.AllocStats().TopOffset
		// reusesChunk checks that en's heap is sound and that Alloc(64) takes
		// p's chunk back without moving top.
		reusesChunk := func(en *Engine) error {
			if err := en.CheckHeap(); err != nil {
				return err
			}
			var q ptm.Ptr
			if err := en.Update(func(tx ptm.Tx) error {
				var err error
				q, err = tx.Alloc(64)
				return err
			}); err != nil {
				return err
			}
			if q != p || en.AllocStats().TopOffset != top {
				return fmt.Errorf("Alloc(64) = %d with top %d, want the freed chunk %d with top %d",
					q, en.AllocStats().TopOffset, p, top)
			}
			return nil
		}

		boom := errors.New("boom")
		images := captureAll(e.Device(), 7, func() {
			err := e.Update(func(tx ptm.Tx) error {
				q, err := tx.Alloc(64)
				if err != nil {
					return err
				}
				if q != p {
					return fmt.Errorf("Alloc(64) = %d, want the only binned chunk %d", q, p)
				}
				return boom
			})
			if !errors.Is(err, boom) {
				t.Errorf("failing transaction: %v", err)
			}
		})
		if len(images) < 20 {
			t.Fatalf("only %d crash images captured", len(images))
		}
		for n, img := range images {
			re, err := Open(pmem.FromImage(img, pmem.ModelDRAM), Config{Variant: v})
			if err != nil {
				t.Fatalf("image %d: recovery failed: %v", n, err)
			}
			if err := reusesChunk(re); err != nil {
				t.Fatalf("image %d: %v", n, err)
			}
		}
		if err := reusesChunk(e); err != nil {
			t.Fatalf("after rollback: %v", err)
		}
	})
}

// TestOpenRefusesLayoutVersion1 forges the header of an image written before
// the allocator's binmap moved the heap's magic and end words: version 1
// under a checksum that covers it. Open must refuse it as a layout mismatch
// rather than read its heap metadata in the new places.
func TestOpenRefusesLayoutVersion1(t *testing.T) { openForgedVersion(t, 1) }

// TestOpenRefusesLayoutVersion2 does the same for an image written before
// pstruct.ByteMap nodes held their values, line-aligned: its maps would be
// read in the wrong node layout.
func TestOpenRefusesLayoutVersion2(t *testing.T) { openForgedVersion(t, 2) }

// openForgedVersion requires Open to refuse a fresh image whose header claims
// layout version v under a checksum that covers it.
func openForgedVersion(t *testing.T, v uint64) {
	t.Helper()
	e, err := New(crashRegion, Config{Variant: RomLog})
	if err != nil {
		t.Fatal(err)
	}
	d := pmem.FromImage(e.Device().Persisted(), pmem.ModelDRAM)
	d.Store64(offVersion, v)
	d.Store64(offHeadSum, headerChecksum(v, d.Load64(offRegionSize)))
	d.PersistAll()
	if _, err := Open(d, Config{Variant: RomLog}); !errors.Is(err, ErrRegionMismatch) {
		t.Fatalf("Open of a version-%d image: %v, want ErrRegionMismatch", v, err)
	}
}
