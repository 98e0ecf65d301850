package core

import (
	"runtime"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// TestEngineFootprint pins what an engine and its device keep resident beyond
// the device image: the device's per-line state and the round's line set are
// bits and one index per cache line, and nothing else scales with the region.
func TestEngineFootprint(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	const size = 32 << 20
	before := liveHeap()
	e, err := Open(pmem.New(size, pmem.ModelDRAM), Config{Variant: Rom})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ { // a working life, so lazily grown scratch exists
		err := e.Update(func(tx ptm.Tx) error {
			p, err := tx.Alloc(1024)
			if err != nil {
				return err
			}
			tx.StoreBytes(p, make([]byte, 1024))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	grown := float64(liveHeap()-before) / size
	runtime.KeepAlive(e)
	if grown > 1.12 {
		t.Errorf("a rom engine on a %d MiB device holds %.3fx the device size in heap, want <= 1.12x", size>>20, grown)
	}
	t.Logf("engine + device heap = %.3fx image", grown)
}
