package leftright

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// The publish interleavings replica reads depend on during a shard split
// (internal/shard routedRead): readers arrive/depart while the single writer
// toggles instances, with NO synchronization between them other than the
// left-right protocol itself.
//
// payload is mutated by the writer with plain (non-atomic) stores and read by
// readers with plain loads. If any interleaving of Arrive/Read/Depart with
// Toggle lets a reader overlap the writer's instance, the race detector
// reports it; the a == b invariant additionally catches torn views even
// without -race.
func TestReadDuringPublishPayloadIntegrity(t *testing.T) {
	var lr LR
	// payload[inst] = {a, b}; the writer always leaves a == b.
	var payload [2][2]uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		slow := r%2 == 0
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
				a := payload[inst][0]
				if slow {
					// Straddle the toggle between the two loads: the writer
					// must still be waiting for this registered reader.
					runtime.Gosched()
				}
				b := payload[inst][1]
				lr.Depart(r)
				if a != b {
					t.Errorf("torn read on instance %d: a=%d b=%d", inst, a, b)
					return
				}
			}
		}()
	}
	cur := Main
	for n := uint64(1); n <= 400; n++ {
		writeSide := 1 - cur
		// Plain stores: only Toggle's drain makes this safe.
		payload[writeSide][0] = n
		payload[writeSide][1] = n
		lr.Toggle(writeSide)
		cur = writeSide
	}
	close(stop)
	wg.Wait()
}

// Mid-toggle progress and publish visibility: while the writer is parked in
// Toggle draining a reader pinned on the old instance, new readers must (a)
// complete Arrive/Read/Depart cycles without blocking — the wait-free
// population-oblivious property — and (b) once they observe the new instance,
// never see the pointer regress. This is exactly the window an online shard
// split spends in cutover: the publish must be visible to new replica reads
// before the drain of old ones finishes.
func TestReadersSeePublishedInstanceMidToggle(t *testing.T) {
	var lr LR
	pinned := lr.Arrive() // version 0, instance Main
	toggled := make(chan struct{})
	go func() {
		lr.Toggle(Back) // blocks in the second WaitEmpty on the pinned reader
		close(toggled)
	}()

	seenBack := false
	cycles := 0
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := lr.Arrive()
		inst := lr.Read()
		lr.Depart(r)
		if inst == Back {
			seenBack = true
			cycles++
		} else if seenBack {
			t.Fatal("instance pointer regressed to Main mid-toggle")
		}
		if cycles >= 1000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readers starved mid-toggle: %d post-publish cycles, seenBack=%v", cycles, seenBack)
		}
	}

	// The pinned reader still holds version 0, so Toggle cannot have passed
	// its second drain, no matter how the above cycles interleaved.
	select {
	case <-toggled:
		t.Fatal("Toggle returned while a reader was pinned on the old instance")
	default:
	}
	lr.Depart(pinned)
	select {
	case <-toggled:
	case <-time.After(5 * time.Second):
		t.Fatal("Toggle never completed after the pinned reader departed")
	}
	r := lr.Arrive()
	if got := lr.Read(); got != Back {
		t.Errorf("Read after completed Toggle = %v, want Back", got)
	}
	lr.Depart(r)
}
