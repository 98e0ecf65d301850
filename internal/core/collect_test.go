//go:build go1.24

package core

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// TestEngineCollectedInOneCycle: once its last user drops it, an engine
// that served concurrent reads and updates — and its device — must be
// unreachable after a single collection. Nothing the engine pools for its
// readers may keep it: pmem hands a collected device's image to the next
// device, and a restart that finds none pays to fault in a fresh mapping.
func TestEngineCollectedInOneCycle(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		eng, dev := usedEngine(t, v)
		runtime.GC()
		if eng.Value() != nil || dev.Value() != nil {
			t.Fatalf("engine reachable %v, device reachable %v after one collection",
				eng.Value() != nil, dev.Value() != nil)
		}
	})
}

// usedEngine runs reads and updates on a fresh engine from several
// goroutines, closes it and returns weak pointers to it and its device.
func usedEngine(t *testing.T, v Variant) (weak.Pointer[Engine], weak.Pointer[pmem.Device]) {
	e := newEngine(t, v)
	var p ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(8)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e.Update(func(tx ptm.Tx) error { tx.Store64(p, uint64(i)); return nil })
				e.Read(func(tx ptm.Tx) error { tx.Load64(p); return nil })
			}
		}()
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return weak.Make(e), weak.Make(e.Device())
}
