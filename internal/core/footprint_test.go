package core

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// workLife runs n updates that each allocate and store 1 KiB: a working
// life, so lazily grown scratch exists and both twins hold n KiB.
func workLife(t *testing.T, e *Engine, n int) {
	val := make([]byte, 1024)
	for i := 0; i < n; i++ {
		err := e.Update(func(tx ptm.Tx) error {
			p, err := tx.Alloc(1024)
			if err != nil {
				return err
			}
			tx.StoreBytes(p, val)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineFootprint pins what an engine and its device keep on the Go heap:
// the device image lives outside it, and the device's per-line state and the
// round's line set are bits and one index per cache line, so nothing else
// scales with the region.
func TestEngineFootprint(t *testing.T) {
	if !pmem.OffHeap {
		t.Skip("device images are Go slices in this build")
	}
	// Signed: a heap that shrank between the reads (earlier tests' garbage
	// collected late) is a negative growth, not a wrapped-around huge one.
	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	const size = 32 << 20
	before := liveHeap()
	e, err := Open(pmem.New(size, pmem.ModelDRAM), Config{Variant: Rom})
	if err != nil {
		t.Fatal(err)
	}
	workLife(t, e, 512)
	grown := float64(liveHeap()-before) / size
	runtime.KeepAlive(e)
	if grown > 0.08 {
		t.Errorf("a rom engine on a %d MiB device holds %.3fx the device size in heap, want <= 0.08x", size>>20, grown)
	}
	t.Logf("engine + device heap = %.3fx image", grown)
}

// TestEngineResidentFootprint pins what the image costs resident: the pages
// the engine has stored to, which is the prefix its watermark covers in each
// twin. A rom engine on a fresh 32 MiB device that stores 512 KiB of values,
// so 1 MiB across its twins, grows the resident set by that and the per-line
// state of those lines, not by 32 MiB. The count starts at the opened engine,
// as TestDeviceResidentFootprint's starts at the new device.
func TestEngineResidentFootprint(t *testing.T) {
	if !pmem.OffHeap {
		t.Skip("device images are Go slices in this build")
	}
	resident := func() int64 {
		b, err := os.ReadFile("/proc/self/statm")
		if err != nil {
			t.Skipf("no resident-set figure: %v", err)
		}
		var size, pages int64
		if _, err := fmt.Sscan(string(b), &size, &pages); err != nil {
			t.Fatalf("statm %q: %v", b, err)
		}
		return pages * int64(os.Getpagesize())
	}
	open := func(size int) *Engine {
		e, err := Open(pmem.New(size, pmem.ModelDRAM), Config{Variant: Rom})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	workLife(t, open(1<<20), 1) // the code the count runs is paged in now, not during it
	const size = 32<<20 + 4096  // a size no other test maps
	e := open(size)
	debug.FreeOSMemory() // and the heap returns its free pages now
	before := resident()
	workLife(t, e, 512)
	grown := resident() - before
	runtime.KeepAlive(e)
	if grown > 2<<20 {
		t.Errorf("a rom engine on a %d MiB device grew the resident set by %d KiB storing 512 KiB, want <= 2048 KiB",
			size>>20, grown>>10)
	}
	t.Logf("resident growth = %d KiB", grown>>10)
}
