package flatcombine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTx is a toy transactional store: Begin snapshots, Commit keeps,
// Replicate ends the round, Rollback restores. It lets the tests verify the
// combiner's transactional contract without a real PTM engine. adds records
// each committed round's net change to value: its request count when every
// operation adds 1. replicate, when set, runs inside the Replicate hook
// (outside mu).
type fakeEngine struct {
	mu         sync.Mutex
	value      int
	snapshot   int
	begins     int
	commits    int
	replicates int
	rollbacks  int
	adds       []int
	inTx       bool
	replicate  func()
}

type fakeTx struct{ e *fakeEngine }

func (t fakeTx) add(n int) { t.e.value += n }

func (e *fakeEngine) hooks() Hooks[fakeTx] {
	return Hooks[fakeTx]{
		Begin: func() fakeTx {
			e.mu.Lock() // detects overlapping transactions via deadlock-free check below
			if e.inTx {
				panic("overlapping transactions")
			}
			e.inTx = true
			e.begins++
			e.snapshot = e.value
			e.mu.Unlock()
			return fakeTx{e}
		},
		Commit: func(tx fakeTx) {
			e.mu.Lock()
			if !e.inTx || e.commits != e.replicates {
				panic("Commit outside a transaction or twice in one round")
			}
			e.commits++
			e.adds = append(e.adds, e.value-e.snapshot)
			e.mu.Unlock()
		},
		Replicate: func(tx fakeTx) {
			if e.replicate != nil {
				e.replicate()
			}
			e.mu.Lock()
			if e.commits != e.replicates+1 {
				panic("Replicate without a Commit")
			}
			e.replicates++
			e.inTx = false
			e.mu.Unlock()
		},
		Rollback: func(tx fakeTx) {
			e.mu.Lock()
			e.rollbacks++
			e.value = e.snapshot
			e.inTx = false
			e.mu.Unlock()
		},
	}
}

// execute runs op through c as a one-operation request and returns the
// round that committed it and its error.
func execute(c *Combiner[fakeTx], op func(fakeTx) error) (uint64, error) {
	r := request(op)
	c.Execute(r)
	return r.Seq, r.Errs[0]
}

// request wraps op as a one-operation request.
func request(op func(fakeTx) error) *Request[fakeTx] {
	return &Request[fakeTx]{Op: func(tx fakeTx, _ int) error { return op(tx) }, Errs: make([]error, 1)}
}

// group returns a Late request of n operations: op(tx, i) for each i, its
// results in Errs — the shape of the server's batch.
func group(n int, op func(tx fakeTx, i int) error) *Request[fakeTx] {
	return &Request[fakeTx]{Op: op, Errs: make([]error, n), Late: true}
}

// waitQueued spins until c holds n requests no batch has taken.
func waitQueued(c *Combiner[fakeTx], n int) {
	for c.q.Len() < n {
		runtime.Gosched()
	}
}

func TestSingleThreadExecute(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	_, err := execute(c, func(tx fakeTx) error {
		tx.add(5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.value != 5 {
		t.Errorf("value = %d, want 5", e.value)
	}
	if e.begins != 1 || e.commits != 1 || e.rollbacks != 0 {
		t.Errorf("hook counts: %+v", e)
	}
}

func TestErrorRollsBack(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	boom := errors.New("boom")
	_, err := execute(c, func(tx fakeTx) error {
		tx.add(5)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if e.value != 0 {
		t.Errorf("value = %d after rollback, want 0", e.value)
	}
	if e.rollbacks == 0 {
		t.Error("Rollback hook never called")
	}
}

func TestPanicPropagatesAndRollsBack(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	func() {
		defer func() {
			if p := recover(); p != "kapow" {
				t.Errorf("recovered %v, want kapow", p)
			}
		}()
		execute(c, func(tx fakeTx) error {
			tx.add(9)
			panic("kapow")
		})
	}()
	if e.value != 0 {
		t.Errorf("value = %d after panic, want 0", e.value)
	}
}

func TestConcurrentCombining(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	const workers, iters = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := execute(c, func(tx fakeTx) error {
					tx.add(1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if e.value != workers*iters {
		t.Errorf("value = %d, want %d", e.value, workers*iters)
	}
	st := c.Stats()
	t.Logf("combined %d ops in %d batches", st.Combined, st.Batches)
}

func TestFailureIsolationInBatch(t *testing.T) {
	// When a batch mixes failing and succeeding ops, the failing op must
	// not commit and the succeeding ops must commit exactly once.
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	const workers = 8
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		fail := w%2 == 0
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, err := execute(c, func(tx fakeTx) error {
					tx.add(1)
					if fail {
						return fmt.Errorf("op rejected")
					}
					return nil
				})
				if fail {
					if err == nil {
						t.Error("failing op reported success")
						return
					}
					failures.Add(1)
				} else if err != nil {
					t.Errorf("succeeding op reported %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := (workers / 2) * 100
	if e.value != want {
		t.Errorf("value = %d, want %d", e.value, want)
	}
	if failures.Load() != int64(want) {
		t.Errorf("failures = %d, want %d", failures.Load(), want)
	}
}

func TestReexecutionAfterBatchFailure(t *testing.T) {
	// An op may run more than once if its batch is rolled back; its final
	// effect must still be exactly-once. Track executions to prove the
	// re-execution path is actually exercised under concurrency.
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	var execs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		fail := w == 0
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				execute(c, func(tx fakeTx) error {
					execs.Add(1)
					tx.add(1)
					if fail {
						return errors.New("always fails")
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
	want := 7 * 50
	if e.value != want {
		t.Errorf("value = %d, want %d", e.value, want)
	}
	if execs.Load() < int64(8*50) {
		t.Errorf("execs = %d, want >= %d", execs.Load(), 8*50)
	}
}

// TestSequentialReuseOfSlot: one request, resubmitted once settled, runs
// each time.
func TestSequentialReuseOfSlot(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	r := request(func(tx fakeTx) error { tx.add(1); return nil })
	for i := 0; i < 100; i++ {
		if c.Execute(r); r.Errs[0] != nil {
			t.Fatal(r.Errs[0])
		}
	}
	if e.value != 100 {
		t.Errorf("value = %d, want 100", e.value)
	}
}

func TestExecuteSeqMonotoneAndStats(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	var last uint64
	for i := 0; i < 50; i++ {
		seq, err := execute(c, func(tx fakeTx) error { tx.add(1); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if seq <= last {
			t.Fatalf("seq %d not monotone after %d", seq, last)
		}
		last = seq
	}
	st := c.Stats()
	if st.Batches != 50 || st.BatchOps != 50 {
		t.Errorf("stats = %+v, want 50 batches of 1 op", st)
	}
	if st.Combined != 0 {
		t.Errorf("Combined = %d, want 0 (no other threads)", st.Combined)
	}
}

func TestFailedOpReportsSeqZero(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	seq, err := execute(c, func(tx fakeTx) error { return errors.New("no") })
	if err == nil {
		t.Fatal("expected error")
	}
	if seq != 0 {
		t.Errorf("seq = %d for rolled-back op, want 0", seq)
	}
}

func TestConcurrentBatchesShareSeq(t *testing.T) {
	// Under contention, ops committed by one durability round must report
	// the same sequence number, and every round's ops count must match the
	// increments the Commit hook saw.
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	const workers, iters = 8, 100
	var mu sync.Mutex
	perSeq := map[uint64]int{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				seq, err := execute(c, func(tx fakeTx) error { tx.add(1); return nil })
				if err != nil || seq == 0 {
					t.Errorf("seq %d err %v", seq, err)
					return
				}
				mu.Lock()
				perSeq[seq]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if e.value != workers*iters {
		t.Fatalf("value = %d, want %d", e.value, workers*iters)
	}
	st := c.Stats()
	if st.BatchOps != workers*iters {
		t.Errorf("BatchOps = %d, want %d", st.BatchOps, workers*iters)
	}
	if st.Batches != uint64(len(perSeq)) {
		t.Errorf("Batches = %d but %d distinct seqs observed", st.Batches, len(perSeq))
	}
	// Cross-check each round's size against what the Commit hook saw: each
	// operation adds 1. Rounds commit in seq order, so the i-th commit is
	// seq i+1.
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.adds) != len(perSeq) {
		t.Fatalf("%d commits, %d seqs", len(e.adds), len(perSeq))
	}
	total := 0
	for seq, n := range perSeq {
		if got := e.adds[seq-1]; got != n {
			t.Errorf("seq %d: commit hook saw %d ops, owners saw %d", seq, got, n)
		}
		total += n
	}
	if total != workers*iters {
		t.Errorf("seq op total = %d, want %d", total, workers*iters)
	}
}

func TestDrainFoldsLateArrivals(t *testing.T) {
	// A second op queued while the combiner is mid-batch must be folded
	// into the same open transaction (same seq), not deferred to its own
	// durability round. The first op blocks inside the transaction until it
	// observes the second in the queue.
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	announced := make(chan struct{})
	var seq2 uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var err error
		// Queue once the first op signals it is running.
		<-announced
		seq2, err = execute(c, func(tx fakeTx) error { tx.add(1); return nil })
		if err != nil {
			t.Error(err)
		}
	}()
	seq1, err := execute(c, func(tx fakeTx) error {
		tx.add(1)
		close(announced)
		// Wait until the second request is queued so the combiner's rescan
		// is guaranteed to find it.
		waitQueued(c, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if seq1 != seq2 {
		t.Errorf("late arrival got seq %d, combiner batch was seq %d; want same round", seq2, seq1)
	}
	if e.commits != 1 {
		t.Errorf("commits = %d, want 1 (single drained batch)", e.commits)
	}
	if st := c.Stats(); st.BatchOps != 2 {
		t.Errorf("BatchOps = %d, want 2", st.BatchOps)
	}
}

func BenchmarkExecuteUncontended(b *testing.B) {
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	r := request(func(tx fakeTx) error { tx.add(1); return nil })
	for i := 0; i < b.N; i++ {
		if c.Execute(r); r.Errs[0] != nil {
			b.Fatal(r.Errs[0])
		}
	}
}

// TestExecuteDirectFoldsAnnounced pins how the server's batch meets the
// embedded writers: its request of several operations runs them in order,
// an operation another caller queued meanwhile is folded into the same
// durability round, and both callers see that round.
func TestExecuteDirectFoldsAnnounced(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	var order []int
	var seq2 uint64
	done := make(chan struct{})
	r := group(2, func(tx fakeTx, i int) error {
		order = append(order, i)
		if i > 0 {
			return nil
		}
		go func() {
			defer close(done)
			var err error
			seq2, err = execute(c, func(tx fakeTx) error { order = append(order, 2); return nil })
			if err != nil {
				t.Error(err)
			}
		}()
		waitQueued(c, 1)
		return nil
	})
	c.Execute(r)
	if err := errors.Join(r.Errs...); err != nil {
		t.Fatal(err)
	}
	<-done
	if r.Seq != seq2 || e.commits != 1 || !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("seqs %d/%d, commits %d, order %v: want one shared round, the group's operations first", r.Seq, seq2, e.commits, order)
	}
	if st := c.Stats(); st.Combined != 1 || st.BatchOps != 2 {
		t.Fatalf("stats %+v: want 1 combined request in a batch of 2", st)
	}
}

// TestExecuteDirectErrorAndPanic: a request of several operations rolls
// back a failing one alone, reports each result, re-raises a panic, and
// leaves the combiner usable.
func TestExecuteDirectErrorAndPanic(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	boom := errors.New("boom")
	r := group(3, func(tx fakeTx, i int) error {
		tx.add(1 << i)
		if i == 1 {
			return boom
		}
		return nil
	})
	c.Execute(r)
	if r.Errs[0] != nil || !errors.Is(r.Errs[1], boom) || r.Errs[2] != nil || r.Seq == 0 {
		t.Fatalf("errs %v, seq %d: want only operation 1 failed", r.Errs, r.Seq)
	}
	if e.value != 5 {
		t.Fatalf("value = %d, want 5 (operation 1 rolled back alone)", e.value)
	}
	func() {
		defer func() {
			if p := recover(); p != "kapow" {
				t.Errorf("recovered %v, want kapow", p)
			}
		}()
		c.Execute(group(2, func(tx fakeTx, i int) error { tx.add(8); panic("kapow") }))
	}()
	if seq, err := execute(c, func(tx fakeTx) error { tx.add(1); return nil }); err != nil || seq == 0 {
		t.Fatalf("op after failures: seq %d, err %v", seq, err)
	}
	if e.value != 6 {
		t.Fatalf("value = %d, want 6 (failed ops rolled back)", e.value)
	}
}

// foldAt returns an op that adds 1 and, on its first run, closes running
// and holds the open transaction until n more requests are queued, so the
// combiner running it folds them into its batch. Queue only after running
// is closed: an earlier arrival would lead itself.
func foldAt(c *Combiner[fakeTx], running chan struct{}, n int) func(fakeTx) error {
	return func(tx fakeTx) error {
		tx.add(1)
		select {
		case <-running:
			return nil // a solo rerun after the batch failed
		default:
			close(running)
		}
		waitQueued(c, n)
		return nil
	}
}

// TestReleaseAtDurablePoint pins when each caller gets its result back. A
// request folded into another caller's batch returns once Commit has
// returned, while Replicate is still blocked; the caller that led the round
// returns only after Replicate.
func TestReleaseAtDurablePoint(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	gate := make(chan struct{})
	e.replicate = func() { <-gate }

	running := make(chan struct{})
	var seqLeader uint64
	leader := make(chan struct{})
	go func() {
		defer close(leader)
		var err error
		seqLeader, err = execute(c, foldAt(c, running, 1))
		if err != nil {
			t.Error(err)
		}
	}()
	<-running
	var seqFolded uint64
	folded := make(chan struct{})
	go func() {
		defer close(folded)
		var err error
		seqFolded, err = execute(c, func(tx fakeTx) error { tx.add(1); return nil })
		if err != nil {
			t.Error(err)
		}
	}()

	select {
	case <-folded:
	case <-time.After(10 * time.Second):
		t.Fatal("folded request still waiting while Replicate is blocked")
	}
	select {
	case <-leader:
		t.Fatal("the leader returned before Replicate ran")
	default:
	}
	close(gate)
	<-leader
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.commits != 1 || e.replicates != 1 || seqFolded != seqLeader {
		t.Fatalf("commits %d, replicates %d, seqs %d/%d: want one round, replicated before the leader returned",
			e.commits, e.replicates, seqFolded, seqLeader)
	}
}

// TestLateReleasedAfterReplicate: a Late request — the server's batch, whose
// replies go on the wire — folded into an embedded caller's round is not
// released at the durable point with the round's other requests, but only
// once Replicate has run.
func TestLateReleasedAfterReplicate(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	gate := make(chan struct{})
	e.replicate = func() { <-gate }

	running := make(chan struct{})
	leader := make(chan struct{})
	go func() {
		defer close(leader)
		execute(c, foldAt(c, running, 2))
	}()
	<-running
	late := group(2, func(tx fakeTx, i int) error { tx.add(1); return nil })
	wire, embedded := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(wire)
		c.Execute(late)
	}()
	waitQueued(c, 1)
	go func() {
		defer close(embedded)
		execute(c, func(tx fakeTx) error { tx.add(1); return nil })
	}()
	<-embedded // released at the durable point, Replicate still blocked
	select {
	case <-wire:
		t.Fatal("the Late request was released before Replicate ran")
	default:
	}
	close(gate)
	<-wire
	<-leader
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.commits != 1 || e.replicates != 1 || e.value != 4 {
		t.Fatalf("commits %d, replicates %d, value %d: want one round of all four operations", e.commits, e.replicates, e.value)
	}
}

// TestManyQueuedRequests: 299 requests queue behind a leader whose
// operation holds its round open — no per-caller slot bounds how many may
// wait — and its rescan folds every one of them into that round.
func TestManyQueuedRequests(t *testing.T) {
	const writers = 300
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	running := make(chan struct{})
	leader := make(chan struct{})
	go func() {
		defer close(leader)
		execute(c, foldAt(c, running, writers-1))
	}()
	<-running
	var wg sync.WaitGroup
	for i := 1; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := execute(c, func(tx fakeTx) error { tx.add(1); return nil }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	<-leader
	if !slices.Equal(e.adds, []int{writers}) {
		t.Fatalf("rounds added %v, want one round of all %d requests", e.adds, writers)
	}
}

// TestEnqueueIsOneBatch: the operations of one request — the server's batch
// — go into one round, even when a leader rescans while it is queued and
// the rounds are bounded to one request: a server batch is always exactly
// one engine round.
func TestEnqueueIsOneBatch(t *testing.T) {
	// Bounded to one request, the rescan cannot fold the request into the
	// leader's round, so it gets a round of its own.
	for _, tc := range []struct {
		maxBatch int
		adds     []int // each round's increments
	}{{0, []int{4}}, {1, []int{1, 3}}} {
		e := &fakeEngine{}
		c := New(e.hooks(), tc.maxBatch)
		running := make(chan struct{})
		leader := make(chan struct{})
		go func() {
			defer close(leader)
			execute(c, foldAt(c, running, 1))
		}()
		<-running
		c.Execute(group(3, func(tx fakeTx, i int) error { tx.add(1); return nil }))
		<-leader
		if !slices.Equal(e.adds, tc.adds) {
			t.Fatalf("maxBatch %d: rounds added %v, want %v: the request's 3 operations in one round", tc.maxBatch, e.adds, tc.adds)
		}
	}
}

// TestHandOffToParkedWaiter: with rounds bounded to one request, a caller
// that parked behind the leader and whose request the leader did not take
// is handed the slot when the leader leaves, and runs its request. The
// request has a Wake, so its caller parks.
func TestHandOffToParkedWaiter(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks(), 1)
	running := make(chan struct{})
	leader := make(chan struct{})
	go func() {
		defer close(leader)
		execute(c, foldAt(c, running, 1))
	}()
	<-running
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		r := request(func(tx fakeTx) error { tx.add(1); return nil })
		r.Wake = make(chan struct{}, 1)
		c.Execute(r)
	}()
	<-leader
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the parked caller was never handed the slot: its request is stranded")
	}
	if e.commits != 2 || e.value != 2 {
		t.Fatalf("commits %d, value %d: want two rounds of one", e.commits, e.value)
	}
}

// TestSoloRerunsReplicateEach: after a batch fails, every operation reruns
// in its own round, and each committed rerun gets its own Replicate before
// the next Begin (the fake panics on a Begin inside an open round).
func TestSoloRerunsReplicateEach(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks(), 0)
	running := make(chan struct{})
	errs := make([]error, 3)
	leader := make(chan struct{})
	go func() {
		defer close(leader)
		_, errs[0] = execute(c, foldAt(c, running, 2))
	}()
	<-running
	var wg sync.WaitGroup
	for i, fail := range []bool{true, false} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i+1] = execute(c, func(tx fakeTx) error {
				tx.add(1)
				if fail {
					return errors.New("rejected")
				}
				return nil
			})
		}()
	}
	wg.Wait()
	<-leader
	if errs[0] != nil || errs[1] == nil || errs[2] != nil {
		t.Fatalf("errors %v: want only the rejected op to fail", errs)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rollbacks != 2 || e.commits != 2 || e.replicates != 2 || e.value != 2 {
		t.Fatalf("rollbacks %d, commits %d, replicates %d, value %d: want the batch and the rejected rerun rolled back, two solo rounds each replicated",
			e.rollbacks, e.commits, e.replicates, e.value)
	}
}
