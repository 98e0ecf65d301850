package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

const testRegion = 1 << 18 // 256 KiB per copy

var allVariants = []Variant{Rom, RomLog, RomLR}

func newEngine(t testing.TB, v Variant) *Engine {
	t.Helper()
	e, err := New(testRegion, Config{Variant: v, Model: pmem.ModelDRAM})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func forEachVariant(t *testing.T, fn func(t *testing.T, v Variant)) {
	for _, v := range allVariants {
		t.Run(v.String(), func(t *testing.T) { fn(t, v) })
	}
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{Rom: "rom", RomLog: "romlog", RomLR: "romlr"}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("Variant(%d).String() = %q, want %q", v, v.String(), want)
		}
	}
}

func TestNewRejectsTinyRegion(t *testing.T) {
	if _, err := New(100, Config{}); err == nil {
		t.Error("New accepted a tiny region")
	}
}

func TestCommitAndReadBack(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		var p ptm.Ptr
		err := e.Update(func(tx ptm.Tx) error {
			var err error
			p, err = tx.Alloc(64)
			if err != nil {
				return err
			}
			tx.Store64(p, 12345)
			tx.Store8(p+8, 0xEE)
			tx.SetRoot(0, p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		err = e.Read(func(tx ptm.Tx) error {
			q := tx.Root(0)
			if q != p {
				return fmt.Errorf("root = %d, want %d", q, p)
			}
			if got := tx.Load64(q); got != 12345 {
				return fmt.Errorf("Load64 = %d", got)
			}
			if got := tx.Load8(q + 8); got != 0xEE {
				return fmt.Errorf("Load8 = %#x", got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllSizedAccessors(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		err := e.Update(func(tx ptm.Tx) error {
			p, err := tx.Alloc(128)
			if err != nil {
				return err
			}
			tx.Store8(p, 0x11)
			tx.Store16(p+2, 0x2222)
			tx.Store32(p+4, 0x33333333)
			tx.Store64(p+8, 0x4444444444444444)
			tx.StoreBytes(p+16, []byte("romulus"))
			if tx.Load8(p) != 0x11 || tx.Load16(p+2) != 0x2222 ||
				tx.Load32(p+4) != 0x33333333 || tx.Load64(p+8) != 0x4444444444444444 {
				return errors.New("readback inside tx failed")
			}
			buf := make([]byte, 7)
			tx.LoadBytes(p+16, buf)
			if string(buf) != "romulus" {
				return fmt.Errorf("LoadBytes = %q", buf)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestErrorRollsBackEverything(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		var p ptm.Ptr
		if err := e.Update(func(tx ptm.Tx) error {
			var err error
			p, err = tx.Alloc(32)
			if err != nil {
				return err
			}
			tx.Store64(p, 1)
			tx.SetRoot(0, p)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		allocsBefore := e.AllocStats().Allocs
		boom := errors.New("boom")
		err := e.Update(func(tx ptm.Tx) error {
			tx.Store64(p, 999)
			q, err := tx.Alloc(64)
			if err != nil {
				return err
			}
			tx.SetRoot(1, q)
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
		if err := e.Read(func(tx ptm.Tx) error {
			if got := tx.Load64(tx.Root(0)); got != 1 {
				return fmt.Errorf("store not rolled back: %d", got)
			}
			if !tx.Root(1).IsNil() {
				return errors.New("root 1 set despite rollback")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// The allocation must have been rolled back too (allocator
		// metadata is transactional, §4.4).
		if got := e.AllocStats().Allocs; got != allocsBefore {
			t.Errorf("allocator did not roll back: %d allocs, want %d", got, allocsBefore)
		}
		if s := e.Stats(); s.Rollbacks == 0 {
			t.Error("rollback not counted")
		}
	})
}

func TestPanicRollsBackAndPropagates(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		var p ptm.Ptr
		if err := e.Update(func(tx ptm.Tx) error {
			var err error
			p, err = tx.Alloc(32)
			if err == nil {
				tx.Store64(p, 7)
				tx.SetRoot(0, p)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != "blam" {
					t.Errorf("recovered %v", r)
				}
			}()
			e.Update(func(tx ptm.Tx) error {
				tx.Store64(p, 888)
				panic("blam")
			})
		}()
		if err := e.Read(func(tx ptm.Tx) error {
			if got := tx.Load64(p); got != 7 {
				return fmt.Errorf("value after panic = %d, want 7", got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// Engine must still be usable.
		if err := e.Update(func(tx ptm.Tx) error {
			tx.Store64(p, 8)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReadOnlyEnforced(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		defer func() {
			if recover() == nil {
				t.Error("store in read transaction did not panic")
			}
		}()
		e.Read(func(tx ptm.Tx) error {
			tx.Store64(ptm.Ptr(rootsOff), 1)
			return nil
		})
	})
}

func TestOutOfRegionAccessPanics(t *testing.T) {
	e := newEngine(t, RomLog)
	defer func() {
		if recover() == nil {
			t.Error("out-of-region access did not panic")
		}
	}()
	e.Read(func(tx ptm.Tx) error {
		_ = tx.Load64(ptm.Ptr(testRegion))
		return nil
	})
}

func TestRootIndexValidation(t *testing.T) {
	e := newEngine(t, RomLog)
	defer func() {
		if recover() == nil {
			t.Error("bad root index did not panic")
		}
	}()
	e.Read(func(tx ptm.Tx) error {
		_ = tx.Root(ptm.NumRoots)
		return nil
	})
}

func TestAllocFreeAcrossTransactions(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		var p ptm.Ptr
		if err := e.Update(func(tx ptm.Tx) error {
			var err error
			p, err = tx.Alloc(100)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.Update(func(tx ptm.Tx) error {
			return tx.Free(p)
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.Update(func(tx ptm.Tx) error {
			if err := tx.Free(p); !errors.Is(err, ptm.ErrBadFree) {
				return fmt.Errorf("double free = %v, want ErrBadFree", err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocZeroesMemory(t *testing.T) {
	e := newEngine(t, RomLog)
	var p ptm.Ptr
	// Dirty a block, free it, reallocate: must come back zeroed.
	if err := e.Update(func(tx ptm.Tx) error {
		q, err := tx.Alloc(64)
		if err != nil {
			return err
		}
		for i := 0; i < 64; i += 8 {
			tx.Store64(q+ptm.Ptr(i), ^uint64(0))
		}
		return tx.Free(q)
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(64)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	e.Read(func(tx ptm.Tx) error {
		for i := 0; i < 64; i += 8 {
			if got := tx.Load64(p + ptm.Ptr(i)); got != 0 {
				t.Errorf("byte %d of fresh allocation = %#x", i, got)
			}
		}
		return nil
	})
}

func TestOutOfMemoryErrorMapped(t *testing.T) {
	e := newEngine(t, RomLog)
	err := e.Update(func(tx ptm.Tx) error {
		_, err := tx.Alloc(testRegion * 2)
		return err
	})
	if !errors.Is(err, ptm.ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
}

// Romulus's headline property: at most 4 persistence fences per update
// transaction, independent of transaction size (Table 1).
func TestAtMostFourFencesPerTransaction(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		var p ptm.Ptr
		if err := e.Update(func(tx ptm.Tx) error {
			var err error
			p, err = tx.Alloc(8192)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		for _, stores := range []int{1, 10, 100, 1000} {
			e.Device().ResetStats()
			if err := e.Update(func(tx ptm.Tx) error {
				for i := 0; i < stores; i++ {
					tx.Store64(p+ptm.Ptr((i*8)%8192), uint64(i))
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			s := e.Device().Stats()
			fences := s.Pfences + s.Psyncs
			if fences > 4 {
				t.Errorf("%d stores: %d fences, want <= 4", stores, fences)
			}
		}
	})
}

// Read-only transactions must issue no persistence operations at all.
func TestReadsAreFenceFree(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		var p ptm.Ptr
		e.Update(func(tx ptm.Tx) error {
			var err error
			p, err = tx.Alloc(64)
			tx.SetRoot(0, p)
			return err
		})
		e.Device().ResetStats()
		for i := 0; i < 100; i++ {
			e.Read(func(tx ptm.Tx) error {
				_ = tx.Load64(tx.Root(0))
				return nil
			})
		}
		s := e.Device().Stats()
		if s.Pwbs != 0 || s.Pfences != 0 || s.Psyncs != 0 || s.Stores != 0 {
			t.Errorf("read transactions touched persistence: %+v", s)
		}
	})
}

// RomulusLog — and, since dirty-range tracking, basic Romulus too — must
// copy only modified ranges at commit; the FullReplicate ablation preserves
// the paper's original full-used-prefix copy (the §4.7 contrast, now
// measured against the ablation rather than the default basic engine).
func TestReplicationVolume(t *testing.T) {
	measure := func(cfg Config) uint64 {
		cfg.Model = pmem.ModelDRAM
		e, err := New(testRegion, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var p ptm.Ptr
		e.Update(func(tx ptm.Tx) error {
			var err error
			p, err = tx.Alloc(64 << 10) // grow the watermark to ~64 KiB
			return err
		})
		e.Device().ResetStats()
		e.Update(func(tx ptm.Tx) error {
			tx.Store64(p, 42) // single 8-byte store
			return nil
		})
		return e.Device().Stats().BytesPersisted
	}
	logBytes := measure(Config{Variant: RomLog})
	dirtyBytes := measure(Config{Variant: Rom})
	fullBytes := measure(Config{Variant: Rom, FullReplicate: true})
	if logBytes >= fullBytes/8 {
		t.Errorf("RomulusLog persisted %d bytes, full-replicate basic %d; expected an order-of-magnitude gap", logBytes, fullBytes)
	}
	if dirtyBytes >= fullBytes/8 {
		t.Errorf("dirty-range basic persisted %d bytes, full-replicate basic %d; expected an order-of-magnitude gap", dirtyBytes, fullBytes)
	}
	if logBytes > 1024 {
		t.Errorf("RomulusLog persisted %d bytes for one store", logBytes)
	}
	if dirtyBytes > 1024 {
		t.Errorf("dirty-range basic persisted %d bytes for one store", dirtyBytes)
	}
}

func TestReopenFromImage(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		e.Update(func(tx ptm.Tx) error {
			p, err := tx.Alloc(32)
			if err != nil {
				return err
			}
			tx.Store64(p, 4242)
			tx.SetRoot(3, p)
			return nil
		})
		// Clean shutdown: everything fenced. Rebuild a device from the
		// persisted image only.
		img := e.Device().CrashImage(pmem.DropAll)
		e2, err := Open(pmem.FromImage(img, pmem.ModelDRAM), Config{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		if err := e2.Read(func(tx ptm.Tx) error {
			if got := tx.Load64(tx.Root(3)); got != 4242 {
				return fmt.Errorf("value after reopen = %d", got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOpenRejectsMismatchedDevice(t *testing.T) {
	e := newEngine(t, RomLog)
	img := e.Device().CrashImage(pmem.DropAll)
	// Truncate the image: region size in the header no longer matches.
	short := img[:len(img)-4096]
	if _, err := Open(pmem.FromImage(short, pmem.ModelDRAM), Config{}); err == nil {
		t.Error("Open accepted a truncated device")
	}
}

func TestWatermarkGrowsWithAllocations(t *testing.T) {
	e := newEngine(t, RomLog)
	w0 := e.Watermark()
	e.Update(func(tx ptm.Tx) error {
		_, err := tx.Alloc(4096)
		return err
	})
	if e.Watermark() <= w0 {
		t.Errorf("watermark did not grow: %d -> %d", w0, e.Watermark())
	}
}

func TestStatsCounters(t *testing.T) {
	e := newEngine(t, RomLog)
	e.Update(func(tx ptm.Tx) error { return nil })
	e.Read(func(tx ptm.Tx) error { return nil })
	s := e.Stats()
	if s.UpdateTxs != 1 || s.ReadTxs != 1 {
		t.Errorf("stats = %+v", s)
	}
	if e.Name() != "romlog" {
		t.Errorf("Name = %q", e.Name())
	}
	if err := e.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestDisableFlatCombining(t *testing.T) {
	e, err := New(testRegion, Config{Variant: RomLog, DisableFlatCombining: true})
	if err != nil {
		t.Fatal(err)
	}
	var p ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(16)
		if err == nil {
			tx.Store64(p, 5)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("no")
	if err := e.Update(func(tx ptm.Tx) error {
		tx.Store64(p, 6)
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	e.Read(func(tx ptm.Tx) error {
		if got := tx.Load64(p); got != 5 {
			t.Errorf("rollback failed without combining: %d", got)
		}
		return nil
	})
}
