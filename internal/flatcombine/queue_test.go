package flatcombine

import (
	"runtime"
	"testing"
	"time"
)

// item is a bare queued request: a Waiter and nothing else.
type item struct{ Waiter }

// heldQueue returns a queue whose first batch signals running, then waits
// for gate before it takes what queued meanwhile (when more is set) and
// releases it; later batches release at once. batches receives each batch's
// size.
func heldQueue(maxBatch int, more bool) (q *Queue[*item], running, gate chan struct{}, batches chan int) {
	running, gate, batches = make(chan struct{}), make(chan struct{}), make(chan int, 16)
	first := true
	q = NewQueue(maxBatch, func(batch []*item) []*item {
		if first {
			first = false
			close(running)
			<-gate
			if more {
				batch = q.More(batch)
			}
		}
		batches <- len(batch)
		q.Release(batch...)
		return batch
	})
	return q, running, gate, batches
}

// waitFor runs fn in a goroutine and returns a channel closed when it returns.
func waitFor(fn func()) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return done
}

// submit enqueues a request with its own wake channel and waits for it on a
// goroutine; the returned channel closes once Wait returned.
func submit(q *Queue[*item], watch bool) (*item, chan struct{}) {
	r := &item{}
	r.Wake, r.Watch = make(chan struct{}, 1), watch
	q.Enqueue(r)
	return r, waitFor(func() { q.Wait(r) })
}

// until spins until cond holds under the queue's view of its waiters, or
// fails the test after a deadline.
func until(t *testing.T, q *Queue[*item], what string, cond func(parked int, watching bool) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		parked, watching := q.Waiting()
		if cond(parked, watching) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d parked, watching %v", what, parked, watching)
		}
	}
}

// finished fails the test unless every channel closes in time.
func finished(t *testing.T, what string, dones ...chan struct{}) {
	t.Helper()
	for _, d := range dones {
		select {
		case <-d:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: a waiter never returned", what)
		}
	}
}

// TestWatcherSettledWithoutUnpark: a Watch request behind a held slot
// watches instead of parking, and the leader's Release settles it without
// sending on its wake channel.
func TestWatcherSettledWithoutUnpark(t *testing.T) {
	q, running, gate, batches := heldQueue(0, true)
	_, leader := submit(q, false)
	<-running
	w, watcher := submit(q, true)
	until(t, q, "the Watch request's owner never watched", func(parked int, watching bool) bool {
		if parked != 0 {
			t.Fatalf("%d parked: the Watch request's owner parked", parked)
		}
		return watching
	})
	close(gate)
	finished(t, "watcher", leader, watcher)
	if n := <-batches; n != 2 {
		t.Fatalf("the leader's batch carried %d requests, want its own and the watcher's", n)
	}
	if len(w.Wake) != 0 {
		t.Fatal("the watcher was unparked: a wake is pending on its channel")
	}
	if parked, watching := q.Waiting(); parked != 0 || watching {
		t.Fatalf("after the batch: %d parked, watching %v", parked, watching)
	}
}

// TestSecondWaiterParksWhileOneWatches: the queue has one watcher; a second
// Watch request behind the held slot parks, and the batch that settles it
// wakes it.
func TestSecondWaiterParksWhileOneWatches(t *testing.T) {
	q, running, gate, batches := heldQueue(0, true)
	_, leader := submit(q, false)
	<-running
	_, first := submit(q, true)
	until(t, q, "the first Watch request's owner never watched", func(_ int, watching bool) bool { return watching })
	_, second := submit(q, true)
	until(t, q, "the second Watch request's owner did not park", func(parked int, watching bool) bool {
		if !watching {
			t.Fatal("the watcher stopped watching while the slot is held")
		}
		return parked == 1
	})
	close(gate)
	finished(t, "watch and park", leader, first, second)
	if n := <-batches; n != 3 {
		t.Fatalf("the leader's batch carried %d requests, want 3", n)
	}
}

// TestWatcherAndParkedWaiterBothRun: with batches of one request, neither
// the watcher nor the parked waiter behind a held slot is stranded once it
// frees: each request gets a round of its own.
func TestWatcherAndParkedWaiterBothRun(t *testing.T) {
	q, running, gate, batches := heldQueue(1, false)
	_, leader := submit(q, false)
	<-running
	_, watcher := submit(q, true)
	until(t, q, "no watcher", func(_ int, watching bool) bool { return watching })
	_, parker := submit(q, false)
	until(t, q, "the plain request's owner did not park", func(parked int, _ bool) bool { return parked == 1 })
	close(gate)
	finished(t, "hand-off", leader, watcher, parker)
	for i := 0; i < 3; i++ {
		if n := <-batches; n != 1 {
			t.Fatalf("batch %d carried %d requests, want 1", i, n)
		}
	}
}

// TestFlushAndExclusivePark: Flush and Exclusive never watch — not even
// while no request watches, nor beside a watcher — and both run once the
// slot frees.
func TestFlushAndExclusivePark(t *testing.T) {
	for _, withWatcher := range []bool{false, true} {
		q, running, gate, _ := heldQueue(0, true)
		_, leader := submit(q, false)
		<-running
		dones := []chan struct{}{leader}
		if withWatcher {
			_, w := submit(q, true)
			until(t, q, "no watcher", func(_ int, watching bool) bool { return watching })
			dones = append(dones, w)
		}
		dones = append(dones, waitFor(q.Flush))
		until(t, q, "Flush did not park", func(parked int, _ bool) bool { return parked == 1 })
		ran := false
		dones = append(dones, waitFor(func() { q.Exclusive(func() { ran = true }) }))
		until(t, q, "Exclusive did not park", func(parked int, watching bool) bool {
			if watching != withWatcher {
				t.Fatalf("watching %v with a watcher %v", watching, withWatcher)
			}
			return parked == 2
		})
		close(gate)
		finished(t, "Flush and Exclusive", dones...)
		if !ran {
			t.Fatal("Exclusive returned without running f")
		}
	}
}
