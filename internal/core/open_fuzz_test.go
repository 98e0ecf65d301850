package core

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// FuzzEngineOpen overwrites part of a formatted image's 256-byte header with
// patch, starting at off — the checksummed static words and the unchecked
// state and watermark words alike — and opens the image. Open must never
// panic. It either refuses with a typed error, or returns an engine whose
// twins agree and whose heap is sound, and which commits a write and reads it
// back. `go test -fuzz FuzzEngineOpen ./internal/core` explores; the seeds
// and testdata/fuzz run in every `go test`.
func FuzzEngineOpen(f *testing.F) {
	e, err := New(1<<15, Config{Variant: RomLog})
	if err != nil {
		f.Fatal(err)
	}
	if err := e.Update(func(tx ptm.Tx) error {
		p, err := tx.Alloc(512)
		tx.SetRoot(0, p)
		for i := 0; i < 64; i++ {
			tx.Store64(p+ptm.Ptr(8*i), uint64(i+1))
		}
		return err
	}); err != nil {
		f.Fatal(err)
	}
	img := e.Device().CrashImage(pmem.DropAll)
	word := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	rs := binary.LittleEndian.Uint64(img[offRegionSize:])
	for _, v := range []uint64{stateMUT, stateCPY, 7} {
		f.Add(uint8(offState), word(v))
	}
	for _, v := range []uint64{0, heapBase, rs - 8, rs + 1<<12, 1 << 62, ^uint64(0)} {
		f.Add(uint8(offWatermark), word(v))
	}
	f.Add(uint8(offMagic), word(0))
	f.Add(uint8(offMagic), word(magicValue^4))
	f.Add(uint8(offVersion), word(layoutVersion+1))
	f.Add(uint8(offRegionSize), word(rs/2))
	f.Add(uint8(offHeadSum), word(0))
	// A layout version the checksum covers: refused by version, not by sum.
	f.Add(uint8(offVersion), slices.Concat(word(layoutVersion+1), img[offRegionSize:offHeadSum],
		word(headerChecksum(layoutVersion+1, rs))))
	f.Fuzz(func(t *testing.T, off uint8, patch []byte) {
		img := append([]byte(nil), img...)
		copy(img[off:headSize], patch)
		re, err := Open(pmem.FromImage(img, pmem.ModelDRAM), Config{Variant: RomLog})
		if err != nil {
			if !errors.Is(err, ErrCorruptHeader) && !errors.Is(err, ErrRegionMismatch) && !errors.Is(err, ErrCorruptPayload) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		if off := re.Verify(); off >= 0 {
			t.Fatalf("opened with twins diverging at %d", off)
		}
		if err := re.CheckHeap(); err != nil {
			t.Fatalf("opened with an unsound heap: %v", err)
		}
		if err := re.Update(func(tx ptm.Tx) error {
			p, err := tx.Alloc(64)
			if err != nil {
				return err
			}
			tx.SetRoot(1, p)
			tx.Store64(p, 0xC0FFEE)
			return nil
		}); err != nil {
			t.Fatalf("update after open: %v", err)
		}
		var got uint64
		re.Read(func(tx ptm.Tx) error {
			got = tx.Load64(tx.Root(1))
			return nil
		})
		if got != 0xC0FFEE {
			t.Fatalf("read back %#x after update", got)
		}
		if off := re.Verify(); off >= 0 {
			t.Fatalf("twins diverge at %d after update", off)
		}
	})
}
