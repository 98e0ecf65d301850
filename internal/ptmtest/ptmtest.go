// Package ptmtest is a conformance suite for ptm.PTM engines: the
// three Romulus variants and the two baseline PTMs all must pass it. It
// checks the transactional contract (atomic visibility, rollback on error,
// transactional allocation), durability across clean restarts, and —
// most importantly — crash atomicity at every persistence event under
// adversarial crash policies.
package ptmtest

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// Engine is what the suite drives: a PTM whose device is reachable for
// crash simulation.
type Engine interface {
	ptm.PTM
	Device() *pmem.Device
}

// Factory creates and re-creates engines for one implementation.
type Factory struct {
	// Name labels the subtests.
	Name string
	// New returns a fresh engine with a small region (>= 64 KiB usable).
	New func(tb testing.TB) Engine
	// Reopen builds an engine over a crash image produced by the suite.
	Reopen func(tb testing.TB, img []byte) (Engine, error)
}

// Run executes the whole conformance suite against the factory.
func Run(t *testing.T, f Factory) {
	t.Run("CommitVisibleAndDurable", func(t *testing.T) { testCommit(t, f) })
	t.Run("UnalignedAccessors", func(t *testing.T) { testAccessors(t, f) })
	t.Run("ErrorDiscardsEffects", func(t *testing.T) { testErrorDiscard(t, f) })
	t.Run("AllocationLifecycle", func(t *testing.T) { testAllocLifecycle(t, f) })
	t.Run("AllocationRollsBackWithTx", func(t *testing.T) { testAllocRollback(t, f) })
	t.Run("CleanRestartKeepsData", func(t *testing.T) { testCleanRestart(t, f) })
	t.Run("CrashAtomicityEverywhere", func(t *testing.T) { testCrashAtomicity(t, f) })
	t.Run("ConcurrentBankInvariant", func(t *testing.T) { testConcurrentBank(t, f) })
	t.Run("LargeStoreBytesDurable", func(t *testing.T) { testLargeStoreBytes(t, f) })
	t.Run("RootsSurviveRestart", func(t *testing.T) { testRootsSurvive(t, f) })
	t.Run("InterleavedHandles", func(t *testing.T) { testInterleavedHandles(t, f) })
	t.Run("ManyConcurrentReaders", func(t *testing.T) { testManyConcurrentReaders(t, f) })
	t.Run("ManyConcurrentUpdaters", func(t *testing.T) { testManyConcurrentUpdaters(t, f) })
}

// testLargeStoreBytes exercises multi-line byte ranges: stored, crashed
// post-commit, and read back intact after recovery.
func testLargeStoreBytes(t *testing.T, f Factory) {
	e := f.New(t)
	blob := make([]byte, 8000)
	for i := range blob {
		blob[i] = byte(i * 31)
	}
	var p ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(len(blob))
		if err != nil {
			return err
		}
		tx.StoreBytes(p, blob)
		tx.SetRoot(0, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	re, err := f.Reopen(t, e.Device().CrashImage(pmem.DropAll))
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Read(func(tx ptm.Tx) error {
		got := make([]byte, len(blob))
		tx.LoadBytes(tx.Root(0), got)
		for i := range blob {
			if got[i] != blob[i] {
				return fmt.Errorf("byte %d = %#x, want %#x", i, got[i], blob[i])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// testRootsSurvive verifies every root slot independently persists.
func testRootsSurvive(t *testing.T, f Factory) {
	e := f.New(t)
	ptrs := make([]ptm.Ptr, ptm.NumRoots)
	if err := e.Update(func(tx ptm.Tx) error {
		for i := 0; i < ptm.NumRoots; i++ {
			p, err := tx.Alloc(8)
			if err != nil {
				return err
			}
			tx.Store64(p, uint64(i)*3+1)
			tx.SetRoot(i, p)
			ptrs[i] = p
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	re, err := f.Reopen(t, e.Device().CrashImage(pmem.DropAll))
	if err != nil {
		t.Fatal(err)
	}
	re.Read(func(tx ptm.Tx) error {
		for i := 0; i < ptm.NumRoots; i++ {
			if got := tx.Root(i); got != ptrs[i] {
				t.Errorf("root %d = %d, want %d", i, got, ptrs[i])
			}
			if v := tx.Load64(tx.Root(i)); v != uint64(i)*3+1 {
				t.Errorf("root %d value = %d", i, v)
			}
		}
		return nil
	})
}

// testInterleavedHandles alternates engine-level Update and Read from one
// goroutine: every Read must see the Update just before it, so no state the
// engine reuses across calls (pooled transactions, read-indicator stripes,
// log segments) carries one call's view into the next.
func testInterleavedHandles(t *testing.T, f Factory) {
	e := f.New(t)
	var p ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(8)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := e.Update(func(tx ptm.Tx) error {
			tx.Store64(p, tx.Load64(p)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.Read(func(tx ptm.Tx) error {
			if got := tx.Load64(p); got != uint64(i+1) {
				return fmt.Errorf("iteration %d: value %d", i, got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// manyCallers is how many goroutines testManyConcurrentReaders and
// testManyConcurrentUpdaters hold inside one engine at once: more than any
// fixed table of per-thread slots of 256 entries would hold.
const manyCallers = 300

// holdMany runs manyCallers goroutines, goroutine i making one call that
// runs op(tx, i), and holds each call's first run of fn until every
// goroutine is inside its fn or has failed, so all of them are inside the
// engine at once. An engine that runs one update fn at a time can never have
// them all inside fn; once every goroutine has called and none has entered
// fn or failed for stall, the waiting fn lets everyone through. Every call
// must succeed.
func holdMany(t *testing.T, call func(fn func(ptm.Tx) error) error, op func(tx ptm.Tx, i int) error) {
	const stall = 100 * time.Millisecond
	var called, inside, failed atomic.Int64
	var release atomic.Bool
	hold := func() {
		last, since := int64(-1), time.Now()
		for !release.Load() {
			got := inside.Load() + failed.Load()
			switch {
			case got == manyCallers:
				release.Store(true)
			case got != last || called.Load() < manyCallers:
				last, since = got, time.Now()
			case time.Since(since) > stall:
				release.Store(true)
			}
			runtime.Gosched()
		}
	}
	var wg sync.WaitGroup
	var once sync.Once
	for i := 0; i < manyCallers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entered := false
			called.Add(1)
			err := call(func(tx ptm.Tx) error {
				if !entered {
					entered = true
					inside.Add(1)
					hold()
				}
				return op(tx, i)
			})
			if err != nil {
				failed.Add(1)
				once.Do(func() { t.Error(err) })
			}
		}(i)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d concurrent calls failed", n, manyCallers)
	}
}

// testManyConcurrentReaders holds manyCallers goroutines inside Read at once;
// every read must succeed and see the committed value. A reader registers
// nothing, so no number of them exhausts an engine.
func testManyConcurrentReaders(t *testing.T, f Factory) {
	e := f.New(t)
	var p ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		if p, err = tx.Alloc(8); err == nil {
			tx.Store64(p, 42)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	holdMany(t, e.Read, func(tx ptm.Tx, i int) error {
		if got := tx.Load64(p); got != 42 {
			return fmt.Errorf("reader %d: value %d, want 42", i, got)
		}
		return nil
	})
}

// testManyConcurrentUpdaters holds manyCallers goroutines inside Update at
// once, each storing to its own word; every update must commit.
func testManyConcurrentUpdaters(t *testing.T, f Factory) {
	e := f.New(t)
	var p ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(8 * manyCallers)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	holdMany(t, e.Update, func(tx ptm.Tx, i int) error {
		tx.Store64(p+ptm.Ptr(8*i), uint64(i)+1)
		return nil
	})
	if err := e.Read(func(tx ptm.Tx) error {
		for i := 0; i < manyCallers; i++ {
			if got := tx.Load64(p + ptm.Ptr(8*i)); got != uint64(i)+1 {
				return fmt.Errorf("word %d = %d, want %d", i, got, i+1)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func testCommit(t *testing.T, f Factory) {
	e := f.New(t)
	var p ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(64)
		if err != nil {
			return err
		}
		tx.Store64(p, 0xC0FFEE)
		tx.SetRoot(0, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Read(func(tx ptm.Tx) error {
		if got := tx.Root(0); got != p {
			return fmt.Errorf("root = %d, want %d", got, p)
		}
		if got := tx.Load64(p); got != 0xC0FFEE {
			return fmt.Errorf("value = %#x", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func testAccessors(t *testing.T, f Factory) {
	e := f.New(t)
	if err := e.Update(func(tx ptm.Tx) error {
		p, err := tx.Alloc(64)
		if err != nil {
			return err
		}
		// Deliberately unaligned offsets, including word-crossing spans.
		tx.Store8(p+3, 0xAB)
		tx.Store16(p+7, 0x1234)              // crosses a word boundary
		tx.Store32(p+13, 0xDEADBEEF)         // crosses a word boundary
		tx.Store64(p+21, 0x1122334455667788) // crosses a word boundary
		tx.StoreBytes(p+33, []byte("edgy"))
		if got := tx.Load8(p + 3); got != 0xAB {
			return fmt.Errorf("Load8 = %#x", got)
		}
		if got := tx.Load16(p + 7); got != 0x1234 {
			return fmt.Errorf("Load16 = %#x", got)
		}
		if got := tx.Load32(p + 13); got != 0xDEADBEEF {
			return fmt.Errorf("Load32 = %#x", got)
		}
		if got := tx.Load64(p + 21); got != 0x1122334455667788 {
			return fmt.Errorf("Load64 = %#x", got)
		}
		buf := make([]byte, 4)
		tx.LoadBytes(p+33, buf)
		if string(buf) != "edgy" {
			return fmt.Errorf("LoadBytes = %q", buf)
		}
		// Neighbouring bytes must be untouched (still zero).
		if tx.Load8(p+2) != 0 || tx.Load8(p+4) != 0 {
			return errors.New("Store8 clobbered neighbours")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func testErrorDiscard(t *testing.T, f Factory) {
	e := f.New(t)
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
	boom := errors.New("boom")
	if err := e.Update(func(tx ptm.Tx) error {
		tx.Store64(p, 2)
		tx.SetRoot(1, p)
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Update returned %v, want boom", err)
	}
	if err := e.Read(func(tx ptm.Tx) error {
		if got := tx.Load64(p); got != 1 {
			return fmt.Errorf("value = %d after failed tx, want 1", got)
		}
		if !tx.Root(1).IsNil() {
			return errors.New("root 1 set by failed tx")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func testAllocLifecycle(t *testing.T, f Factory) {
	e := f.New(t)
	var p ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(100)
		if err != nil {
			return err
		}
		// Fresh memory must be zero.
		for i := 0; i < 100; i += 8 {
			if got := tx.Load64(p + ptm.Ptr(i)); i+8 <= 100 && got != 0 {
				return fmt.Errorf("fresh byte %d = %#x", i, got)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(func(tx ptm.Tx) error { return tx.Free(p) }); err != nil {
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
	// Out of memory must surface as ptm.ErrOutOfMemory.
	err := e.Update(func(tx ptm.Tx) error {
		_, err := tx.Alloc(1 << 30)
		return err
	})
	if !errors.Is(err, ptm.ErrOutOfMemory) {
		t.Fatalf("huge alloc = %v, want ErrOutOfMemory", err)
	}
}

func testAllocRollback(t *testing.T, f Factory) {
	e := f.New(t)
	boom := errors.New("abort")
	// Allocate inside a failing transaction; repeat many times. If failed
	// allocations leaked, the heap would eventually exhaust. Sizes stay
	// modest so every engine (including segment-limited redo logging) can
	// hold the zeroing in one transaction.
	for i := 0; i < 50; i++ {
		if err := e.Update(func(tx ptm.Tx) error {
			if _, err := tx.Alloc(1024); err != nil {
				return fmt.Errorf("iteration %d: %w", i, err)
			}
			return boom
		}); !errors.Is(err, boom) {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	// The heap must still satisfy a sizeable request.
	if err := e.Update(func(tx ptm.Tx) error {
		_, err := tx.Alloc(4 << 10)
		return err
	}); err != nil {
		t.Fatalf("heap leaked by rolled-back allocations: %v", err)
	}
}

func testCleanRestart(t *testing.T, f Factory) {
	e := f.New(t)
	if err := e.Update(func(tx ptm.Tx) error {
		p, err := tx.Alloc(32)
		if err != nil {
			return err
		}
		tx.Store64(p, 777)
		tx.SetRoot(5, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	img := e.Device().CrashImage(pmem.DropAll) // post-commit: all durable
	re, err := f.Reopen(t, img)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Read(func(tx ptm.Tx) error {
		if got := tx.Load64(tx.Root(5)); got != 777 {
			return fmt.Errorf("value after restart = %d", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func testCrashAtomicity(t *testing.T, f Factory) {
	e := f.New(t)
	const slots = 8
	var p ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(slots * 8)
		if err != nil {
			return err
		}
		tx.SetRoot(0, p)
		for i := 0; i < slots; i++ {
			tx.Store64(p+ptm.Ptr(i*8), 100)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	dev := e.Device()
	policies := []pmem.CrashPolicy{
		pmem.DropAll,
		pmem.KeepQueued,
		{QueuedPersistProb: 0.5, EvictDirtyProb: 0.25, TearWords: true,
			Rand: rand.New(rand.NewSource(99))},
	}
	var images [][]byte
	capture := func() {
		for _, pol := range policies {
			images = append(images, dev.CrashImage(pol))
		}
	}
	dev.SetHooks(&pmem.Hooks{
		Store: func(uint64) { capture() },
		Pwb:   func(uint64) { capture() },
		Fence: capture,
	})
	err := e.Update(func(tx ptm.Tx) error {
		for i := 0; i < slots; i++ {
			tx.Store64(p+ptm.Ptr(i*8), 200)
		}
		return nil
	})
	dev.SetHooks(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(images) == 0 {
		t.Fatal("no crash images captured")
	}
	for n, img := range images {
		re, err := f.Reopen(t, img)
		if err != nil {
			t.Fatalf("image %d: recovery failed: %v", n, err)
		}
		if err := re.Read(func(tx ptm.Tx) error {
			base := tx.Root(0)
			first := tx.Load64(base)
			if first != 100 && first != 200 {
				return fmt.Errorf("impossible value %d", first)
			}
			for i := 1; i < slots; i++ {
				if got := tx.Load64(base + ptm.Ptr(i*8)); got != first {
					return fmt.Errorf("torn: slot %d = %d vs %d", i, got, first)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("image %d: %v", n, err)
		}
	}
	t.Logf("%d crash images verified", len(images))
}

func testConcurrentBank(t *testing.T, f Factory) {
	e := f.New(t)
	const accounts, initial = 16, 100
	var arr ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		arr, err = tx.Alloc(accounts * 8)
		if err != nil {
			return err
		}
		for i := 0; i < accounts; i++ {
			tx.Store64(arr+ptm.Ptr(i*8), initial)
		}
		tx.SetRoot(0, arr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers, iters = 4, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if err := e.Update(func(tx ptm.Tx) error {
					a := tx.Root(0)
					fv := tx.Load64(a + ptm.Ptr(from*8))
					if fv < 5 {
						return nil
					}
					tx.Store64(a+ptm.Ptr(from*8), fv-5)
					tx.Store64(a+ptm.Ptr(to*8), tx.Load64(a+ptm.Ptr(to*8))+5)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					if err := e.Read(func(tx ptm.Tx) error {
						a := tx.Root(0)
						var sum uint64
						for k := 0; k < accounts; k++ {
							sum += tx.Load64(a + ptm.Ptr(k*8))
						}
						if sum != accounts*initial {
							return fmt.Errorf("snapshot sum = %d", sum)
						}
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if err := e.Read(func(tx ptm.Tx) error {
		a := tx.Root(0)
		var sum uint64
		for k := 0; k < accounts; k++ {
			sum += tx.Load64(a + ptm.Ptr(k*8))
		}
		if sum != accounts*initial {
			return fmt.Errorf("final sum = %d", sum)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
