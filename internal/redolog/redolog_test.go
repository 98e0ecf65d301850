package redolog

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/ptmtest"
)

func TestConformance(t *testing.T) {
	cfg := Config{SegmentSize: 64 << 10, Segments: 4}
	ptmtest.Run(t, ptmtest.Factory{
		Name: "mne",
		New: func(tb testing.TB) ptmtest.Engine {
			e, err := New(1<<20, cfg)
			if err != nil {
				tb.Fatal(err)
			}
			return e
		},
		Reopen: func(tb testing.TB, img []byte) (ptmtest.Engine, error) {
			return Open(pmem.FromImage(img, pmem.ModelDRAM), cfg)
		},
	})
}

func newEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := New(1<<20, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestName(t *testing.T) {
	e := newEngine(t)
	if e.Name() != "mne" {
		t.Errorf("Name = %q", e.Name())
	}
}

func TestTxTooLarge(t *testing.T) {
	e, err := New(1<<19, Config{SegmentSize: 4096, Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	var p ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(128)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// 4096-byte segment holds (4096-16)/64 = 63 entries; write more words.
	err = e.Update(func(tx ptm.Tx) error {
		q, err := tx.Alloc(1024)
		if err != nil {
			return err
		}
		for i := 0; i < 1024; i += 8 {
			tx.Store64(q+ptm.Ptr(i), uint64(i))
		}
		return nil
	})
	if !errors.Is(err, ErrTxTooLarge) {
		t.Fatalf("err = %v, want ErrTxTooLarge", err)
	}
	// Nothing must have been applied (lazy versioning).
	e.Read(func(tx ptm.Tx) error {
		if got := tx.Load64(p); got != 0 {
			t.Errorf("stray write after rejected tx: %d", got)
		}
		return nil
	})
	// Engine still usable.
	if err := e.Update(func(tx ptm.Tx) error {
		tx.Store64(p, 9)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// Write skew must be impossible: two transactions each read both flags and
// set one; serializability forbids both setting.
func TestNoWriteSkew(t *testing.T) {
	e := newEngine(t)
	var p ptm.Ptr
	e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(16)
		return err
	})
	var wg sync.WaitGroup
	for it := 0; it < 200; it++ {
		e.Update(func(tx ptm.Tx) error {
			tx.Store64(p, 0)
			tx.Store64(p+8, 0)
			return nil
		})
		wg.Add(2)
		for w := 0; w < 2; w++ {
			go func(me int) {
				defer wg.Done()
				e.Update(func(tx ptm.Tx) error {
					a := tx.Load64(p)
					b := tx.Load64(p + 8)
					if a == 0 && b == 0 {
						tx.Store64(p+ptm.Ptr(me*8), 1)
					}
					return nil
				})
			}(w)
		}
		wg.Wait()
		e.Read(func(tx ptm.Tx) error {
			a, b := tx.Load64(p), tx.Load64(p+8)
			if a == 1 && b == 1 {
				t.Fatalf("write skew: both flags set (iteration %d)", it)
			}
			return nil
		})
	}
}

// Concurrent updates to DISJOINT words must all commit (fine-grained
// conflict detection, unlike the global-lock engines).
func TestDisjointUpdatesAllCommit(t *testing.T) {
	e := newEngine(t)
	const workers, iters = 8, 100
	var arr ptm.Ptr
	e.Update(func(tx ptm.Tx) error {
		var err error
		arr, err = tx.Alloc(workers * 64) // one cache line each; separate stripes
		return err
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			slot := arr + ptm.Ptr(me*64)
			for i := 0; i < iters; i++ {
				if err := e.Update(func(tx ptm.Tx) error {
					tx.Store64(slot, tx.Load64(slot)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	e.Read(func(tx ptm.Tx) error {
		for w := 0; w < workers; w++ {
			if got := tx.Load64(arr + ptm.Ptr(w*64)); got != iters {
				t.Errorf("slot %d = %d, want %d", w, got, iters)
			}
		}
		return nil
	})
}

// A shared counter incremented by every update transaction causes conflicts
// and aborts — the phenomenon behind Mnemosyne's resizable-hash-map
// collapse in Figure 4 (§6.2). An aborted attempt reruns fn, so the runs
// beyond one per update count the aborts.
func TestSharedCounterCausesAborts(t *testing.T) {
	e := newEngine(t)
	var ctr ptm.Ptr
	e.Update(func(tx ptm.Tx) error {
		var err error
		ctr, err = tx.Alloc(8)
		return err
	})
	const workers, iters = 8, 200
	var runs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e.Update(func(tx ptm.Tx) error {
					runs.Add(1)
					tx.Store64(ctr, tx.Load64(ctr)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	e.Read(func(tx ptm.Tx) error {
		if got := tx.Load64(ctr); got != workers*iters {
			t.Errorf("counter = %d, want %d", got, workers*iters)
		}
		return nil
	})
	t.Logf("aborts under shared-counter contention: %d", runs.Load()-workers*iters)
}

// Mnemosyne pays at least 4 fences per update transaction and only 8 log
// words per stored word (Table 1).
func TestCommitFencesAndLogVolume(t *testing.T) {
	e := newEngine(t)
	var p ptm.Ptr
	e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(256)
		return err
	})
	e.Device().ResetStats()
	e.Update(func(tx ptm.Tx) error {
		for i := 0; i < 4; i++ {
			tx.Store64(p+ptm.Ptr(i*8), uint64(i))
		}
		return nil
	})
	s := e.Device().Stats()
	if fences := s.Pfences + s.Psyncs; fences < 4 {
		t.Errorf("fences = %d, want >= 4", fences)
	}
	// Write amplification: 4 words stored in place + 4*8 words of log
	// footprint persisted (whole lines).
	if s.BytesPersisted < 4*entrySize {
		t.Errorf("BytesPersisted = %d, expected at least the log entries (%d)", s.BytesPersisted, 4*entrySize)
	}
}

// Read-only transactions never observe a half-committed write set.
func TestReadSnapshotConsistency(t *testing.T) {
	e := newEngine(t)
	var p ptm.Ptr
	e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(16)
		return err
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.Update(func(tx ptm.Tx) error {
				tx.Store64(p, i)
				tx.Store64(p+8, i)
				return nil
			})
		}
	}()
	for i := 0; i < 2000; i++ {
		e.Read(func(tx ptm.Tx) error {
			a, b := tx.Load64(p), tx.Load64(p+8)
			if a != b {
				t.Errorf("torn snapshot: %d != %d", a, b)
			}
			return nil
		})
	}
	close(stop)
	wg.Wait()
}

// Recovery must replay a committed-but-unapplied redo log.
func TestRecoveryReplaysCommittedLog(t *testing.T) {
	e := newEngine(t)
	var p ptm.Ptr
	e.Update(func(tx ptm.Tx) error {
		var err error
		p, err = tx.Alloc(64)
		tx.SetRoot(0, p)
		if err == nil {
			tx.Store64(p, 1)
		}
		return err
	})
	// Capture an image at the moment the commit marker is durable but
	// before in-place write-back is fenced: KeepQueued keeps everything
	// that was flushed, so take the image right at the committed=1 fence.
	dev := e.Device()
	var img []byte
	dev.SetHooks(&pmem.Hooks{Fence: func() {
		base := e.segBase(0)
		if img == nil && dev.Load64(base+segCommitted) == segDone {
			img = dev.CrashImage(pmem.DropAll)
		}
	}})
	e.Update(func(tx ptm.Tx) error {
		tx.Store64(p, 2)
		return nil
	})
	dev.SetHooks(nil)
	if img == nil {
		t.Fatal("never observed a durable committed marker")
	}
	re, err := Open(pmem.FromImage(img, pmem.ModelDRAM), Config{})
	if err != nil {
		t.Fatal(err)
	}
	re.Read(func(tx ptm.Tx) error {
		if got := tx.Load64(tx.Root(0)); got != 2 {
			t.Errorf("committed tx lost: %d, want 2 (log replay)", got)
		}
		return nil
	})
}
