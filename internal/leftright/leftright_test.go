package leftright

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestZeroValueDirectsReadersAtMain(t *testing.T) {
	var lr LR
	r := lr.Arrive()
	if got := lr.Read(); got != Main {
		t.Errorf("Read = %v, want Main", got)
	}
	lr.Depart(r)
}

func TestToggleSwitchesInstance(t *testing.T) {
	var lr LR
	lr.Toggle(Back)
	r := lr.Arrive()
	if got := lr.Read(); got != Back {
		t.Errorf("Read after Toggle(Back) = %v", got)
	}
	lr.Depart(r)
	lr.Toggle(Main)
	r = lr.Arrive()
	if got := lr.Read(); got != Main {
		t.Errorf("Read after Toggle(Main) = %v", got)
	}
	lr.Depart(r)
}

func TestToggleWaitsForReaderOnOtherInstance(t *testing.T) {
	var lr LR
	r := lr.Arrive() // reader on Main
	done := make(chan struct{})
	go func() {
		lr.Toggle(Back) // must wait for the Main reader
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Toggle returned while a reader was active on the old instance")
	case <-time.After(20 * time.Millisecond):
	}
	lr.Depart(r)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Toggle never completed after reader departed")
	}
}

// The core Left-Right safety property: after Toggle(to) returns, no reader
// is observing the other instance, ever, under heavy churn.
func TestNoReaderOnWriteSideInstance(t *testing.T) {
	var lr LR
	// observing[i] counts readers currently using instance i.
	var observing [2]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
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
				r := lr.Arrive()
				inst := lr.Read()
				observing[inst].Add(1)
				observing[inst].Add(-1)
				lr.Depart(r)
			}
		}()
	}
	cur := Main
	for i := 0; i < 300; i++ {
		next := 1 - cur
		lr.Toggle(next)
		// Writer now owns instance `cur`; no reader may be observing it.
		for k := 0; k < 10; k++ {
			if n := observing[cur].Load(); n != 0 {
				t.Fatalf("iteration %d: %d readers on the writer-side instance", i, n)
			}
		}
		cur = next
	}
	close(stop)
	wg.Wait()
}

// Readers must be wait-free: an Arrive/Read/Depart cycle completes even
// while a writer is blocked mid-toggle waiting for someone else.
func TestReadersWaitFreeDuringToggle(t *testing.T) {
	var lr LR
	blocker := lr.Arrive() // keeps the writer waiting
	toggling := make(chan struct{})
	go func() {
		close(toggling)
		lr.Toggle(Back)
	}()
	<-toggling
	time.Sleep(5 * time.Millisecond) // let the writer reach its wait loop
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			r := lr.Arrive()
			_ = lr.Read()
			lr.Depart(r)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reader blocked while writer mid-toggle")
	}
	lr.Depart(blocker)
}

func BenchmarkArriveReadDepart(b *testing.B) {
	var lr LR
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := lr.Arrive()
			_ = lr.Read()
			lr.Depart(r)
		}
	})
}
