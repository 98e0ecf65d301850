package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// Bank-transfer workload: concurrent transfers preserve the total balance,
// and every read transaction observes a consistent (fully-transferred)
// snapshot. This exercises durable linearizability's visibility half for
// all three engines: C-RW-WP for Rom/RomLog, Left-Right for RomLR.
func TestConcurrentBankTransfers(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		const accounts = 32
		const initial = 1000
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

		const writers, readers, transfers = 4, 4, 300
		var wwg, rwg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < writers; w++ {
			wwg.Add(1)
			go func(seed int64) {
				defer wwg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < transfers; i++ {
					from := rng.Intn(accounts)
					to := rng.Intn(accounts)
					amount := uint64(rng.Intn(10))
					if err := e.Update(func(tx ptm.Tx) error {
						a := tx.Root(0)
						fv := tx.Load64(a + ptm.Ptr(from*8))
						if fv < amount {
							return nil
						}
						tx.Store64(a+ptm.Ptr(from*8), fv-amount)
						tv := tx.Load64(a + ptm.Ptr(to*8))
						tx.Store64(a+ptm.Ptr(to*8), tv+amount)
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}(int64(w))
		}
		for r := 0; r < readers; r++ {
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := e.Read(func(tx ptm.Tx) error {
						a := tx.Root(0)
						var sum uint64
						for i := 0; i < accounts; i++ {
							sum += tx.Load64(a + ptm.Ptr(i*8))
						}
						if sum != accounts*initial {
							return fmt.Errorf("inconsistent snapshot: sum = %d, want %d", sum, accounts*initial)
						}
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
					// On a single-CPU machine a non-yielding reader burns
					// whole scheduler quanta and starves the writers.
					runtime.Gosched()
				}
			}()
		}
		wwg.Wait()
		close(stop)
		rwg.Wait()

		// Final audit.
		if err := e.Read(func(tx ptm.Tx) error {
			a := tx.Root(0)
			var sum uint64
			for i := 0; i < accounts; i++ {
				sum += tx.Load64(a + ptm.Ptr(i*8))
			}
			if sum != accounts*initial {
				return fmt.Errorf("final sum = %d", sum)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// Concurrent allocation/free churn through the flat combiner must keep the
// sequential allocator consistent.
func TestConcurrentAllocFree(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		const workers = 6
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				var mine []ptm.Ptr
				for i := 0; i < 150; i++ {
					if len(mine) == 0 || rng.Intn(2) == 0 {
						if err := e.Update(func(tx ptm.Tx) error {
							p, err := tx.Alloc(8 + rng.Intn(200))
							if err != nil {
								return err
							}
							tx.Store64(p, uint64(seed))
							mine = append(mine, p)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					} else {
						i := rng.Intn(len(mine))
						p := mine[i]
						if err := e.Update(func(tx ptm.Tx) error {
							if got := tx.Load64(p); got != uint64(seed) {
								return fmt.Errorf("my block holds %d, want %d", got, seed)
							}
							return tx.Free(p)
						}); err != nil {
							t.Error(err)
							return
						}
						mine[i] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					}
				}
			}(int64(w))
		}
		wg.Wait()
		if err := e.CheckHeap(); err != nil {
			t.Fatal(err)
		}
	})
}

// Under RomulusLR, read transactions must make progress while an update is
// in flight (wait-freedom): readers run against the back copy during the
// mutation phase.
func TestRomLRReadersProgressDuringUpdate(t *testing.T) {
	e := newEngine(t, RomLR)
	var p ptm.Ptr
	e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(64)
		tx.SetRoot(0, p)
		tx.Store64(p, 1)
		return err
	})

	inTx := make(chan struct{})
	release := make(chan struct{})
	var updateDone sync.WaitGroup
	updateDone.Add(1)
	go func() {
		defer updateDone.Done()
		e.Update(func(tx ptm.Tx) error {
			tx.Store64(p, 2)
			close(inTx)
			<-release // hold the transaction open
			return nil
		})
	}()
	<-inTx
	// The writer is mid-transaction. Readers must complete and must see the
	// pre-transaction value (durable snapshot on back).
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e.Read(func(tx ptm.Tx) error {
					if got := tx.Load64(tx.Root(0)); got != 1 {
						t.Errorf("reader saw %d during in-flight update, want 1", got)
					}
					reads.Add(1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if reads.Load() != 400 {
		t.Fatalf("only %d reads completed while writer in flight", reads.Load())
	}
	close(release)
	updateDone.Wait()
	e.Read(func(tx ptm.Tx) error {
		if got := tx.Load64(tx.Root(0)); got != 2 {
			t.Errorf("value after update = %d, want 2", got)
		}
		return nil
	})
}

// Flat combining should actually combine under contention: with many
// simultaneous writers, some operations must be executed by a combiner on
// behalf of another thread.
func TestFlatCombiningAggregates(t *testing.T) {
	e := newEngine(t, RomLog)
	var p ptm.Ptr
	e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(8)
		return err
	})
	var wg sync.WaitGroup
	const workers, iters = 8, 400
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e.Update(func(tx ptm.Tx) error {
					tx.Store64(p, tx.Load64(p)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	e.Read(func(tx ptm.Tx) error {
		if got := tx.Load64(p); got != workers*iters {
			t.Errorf("counter = %d, want %d", got, workers*iters)
		}
		return nil
	})
	if s := e.Stats(); s.Combined == 0 {
		t.Log("warning: no operations were combined (timing-dependent)")
	} else {
		t.Logf("combined %d operations", s.Combined)
	}
}

// TestManyConcurrentWriters: 300 writers wait on one engine at once — the
// first one's op holds its round open until the other 299 have queued — and
// every update commits. A writer takes no per-thread slot, so nothing bounds
// how many may wait; ptmtest's ManyConcurrentReaders holds as many readers.
func TestManyConcurrentWriters(t *testing.T) {
	e := newEngine(t, RomLog)
	const writers = 300
	var p ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(8)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	held := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	var failed atomic.Int64
	update := func(first bool) {
		defer wg.Done()
		err := e.Update(func(tx ptm.Tx) error {
			if first {
				once.Do(func() {
					close(held)
					for e.comb.Len() < writers-1 {
						runtime.Gosched()
					}
				})
			}
			tx.Store64(p, tx.Load64(p)+1)
			return nil
		})
		if err != nil {
			if failed.Add(1) == 1 {
				t.Error(err)
			}
		}
	}
	wg.Add(1)
	go update(true)
	<-held
	for i := 1; i < writers; i++ {
		wg.Add(1)
		go update(false)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d concurrent updates failed", n, writers)
	}
	e.Read(func(tx ptm.Tx) error {
		if got := tx.Load64(p); got != writers {
			t.Errorf("counter = %d, want %d", got, writers)
		}
		return nil
	})
}

// TestReadersReleasedAtDurablePoint parks the writer on its first back-copy
// write-back, after the durable point and before replication finishes. Every
// variant must already let a reader see the committed value there (RomLR by
// its second toggle, Rom and RomLog by releasing the C-RW-WP lock), and a
// power failure there must be a replication-pending image that recovers
// with that value.
func TestReadersReleasedAtDurablePoint(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e := newEngine(t, v)
		var p ptm.Ptr
		if err := e.Update(func(tx ptm.Tx) error {
			var err error
			p, err = tx.Alloc(64)
			tx.SetRoot(0, p)
			tx.Store64(p, 1)
			return err
		}); err != nil {
			t.Fatal(err)
		}

		dev := e.Device()
		back := e.DataOffsets()[1]
		parked, release := make(chan struct{}), make(chan struct{})
		var img []byte
		var once sync.Once
		dev.SetHooks(&pmem.Hooks{PwbAt: func(off int) {
			if off >= back {
				once.Do(func() {
					img = dev.CrashImage(pmem.DropAll)
					close(parked)
					<-release
				})
			}
		}})
		defer dev.SetHooks(nil)
		updated := make(chan error, 1)
		go func() {
			updated <- e.Update(func(tx ptm.Tx) error { tx.Store64(p, 2); return nil })
		}()
		<-parked

		read := make(chan uint64, 1)
		go e.Read(func(tx ptm.Tx) error {
			read <- tx.Load64(tx.Root(0))
			return nil
		})
		select {
		case got := <-read:
			if got != 2 {
				t.Errorf("reader saw %d while the writer replicated, want the committed 2", got)
			}
		case <-time.After(5 * time.Second):
			t.Error("reader still blocked while the writer replicates past its durable point")
		}
		close(release)
		if err := <-updated; err != nil {
			t.Fatal(err)
		}

		if !ReplicationPending(img) {
			t.Fatal("image taken at the first back-copy pwb is not replication-pending")
		}
		r, err := Open(pmem.FromImage(img, pmem.ModelDRAM), Config{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		r.Read(func(tx ptm.Tx) error {
			if got := tx.Load64(tx.Root(0)); got != 2 {
				t.Errorf("recovered %d, want the committed 2", got)
			}
			return nil
		})
	})
}

// BenchmarkEngineRead is the cost of one engine-level Read of one word, from
// every processor at once and with no writer: the pooled read transaction,
// the read-indicator stripe, and the trip and trace checks around fn.
func BenchmarkEngineRead(b *testing.B) {
	for _, v := range allVariants {
		b.Run(v.String(), func(b *testing.B) {
			e := newEngine(b, v)
			if err := e.Update(func(tx ptm.Tx) error {
				p, err := tx.Alloc(8)
				tx.SetRoot(0, p)
				return err
			}); err != nil {
				b.Fatal(err)
			}
			read := func(tx ptm.Tx) error { tx.Load64(tx.Root(0)); return nil }
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := e.Read(read); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkReadDuringUpdate measures how long a reader waits while one
// writer commits 1 KiB rounds back to back on pcm latencies: the reader's
// p50 and p90 per Read, the C-RW-WP (rom, romlog) and left-right (romlr)
// cost of sharing the engine with a writer.
func BenchmarkReadDuringUpdate(b *testing.B) {
	for _, v := range allVariants {
		b.Run(v.String(), func(b *testing.B) {
			e, err := New(testRegion, Config{Variant: v, Model: pmem.ModelPCM})
			if err != nil {
				b.Fatal(err)
			}
			var p ptm.Ptr
			if err := e.Update(func(tx ptm.Tx) error {
				p, err = tx.Alloc(1024)
				tx.SetRoot(0, p)
				return err
			}); err != nil {
				b.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				val := make([]byte, 1024)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					val[0] = byte(i)
					if err := e.Update(func(tx ptm.Tx) error { tx.StoreBytes(p, val); return nil }); err != nil {
						b.Error(err)
						return
					}
				}
			}()
			var wait obs.Histogram
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				e.Read(func(tx ptm.Tx) error {
					readSink = tx.Load64(tx.Root(0))
					return nil
				})
				wait.Observe(uint64(time.Since(t0)))
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(wait.Quantile(0.5))/1e3, "p50_us")
			b.ReportMetric(float64(wait.Quantile(0.9))/1e3, "p90_us")
		})
	}
}

var readSink uint64
