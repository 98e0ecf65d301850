package crwwp

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hsync"
)

func TestReadersExcludeWriter(t *testing.T) {
	var l Lock
	var value, snapshotA, snapshotB int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: serialized by construction (single goroutine).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			l.WriterArrive()
			// Non-atomic two-step update; readers must never see it torn.
			value++
			snapshotA = value
			snapshotB = value
			l.WriterDepart()
		}
		close(stop)
	}()

	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := l.SharedLock()
				a, b := snapshotA, snapshotB
				l.SharedUnlock(s)
				if a != b {
					t.Errorf("torn read: %d != %d", a, b)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestWriterPreference(t *testing.T) {
	// With a continuous stream of readers, the writer must still get in.
	var l Lock
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !writerDone.Load() {
				l.SharedUnlock(l.SharedLock())
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond) // let readers saturate
		l.WriterArrive()
		l.WriterDepart()
		writerDone.Store(true)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		writerDone.Store(true)
		t.Fatal("writer starved by readers")
	}
	wg.Wait()
}

func TestWriterWaitsForReader(t *testing.T) {
	var l Lock
	s := l.SharedLock()
	acquired := make(chan struct{})
	go func() {
		l.WriterArrive()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("writer entered while reader held the lock")
	case <-time.After(20 * time.Millisecond):
	}
	l.SharedUnlock(s)
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never entered after reader departed")
	}
	l.WriterDepart()
}

func TestReaderBlockedWhileWriterPresent(t *testing.T) {
	var l Lock
	l.WriterArrive()
	got := make(chan *hsync.Stripe, 1)
	go func() {
		got <- l.SharedLock()
	}()
	select {
	case <-got:
		t.Fatal("reader entered while writer present")
	case <-time.After(20 * time.Millisecond):
	}
	l.WriterDepart()
	select {
	case s := <-got:
		l.SharedUnlock(s)
	case <-time.After(5 * time.Second):
		t.Fatal("reader never entered after writer departed")
	}
}

func BenchmarkSharedLockUnlock(b *testing.B) {
	var l Lock
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.SharedUnlock(l.SharedLock())
		}
	})
}
