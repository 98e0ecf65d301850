package flatcombine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hsync"
)

// fakeTx is a toy transactional store: Begin snapshots, Commit keeps,
// Replicate ends the round, Rollback restores. It lets the tests verify the
// combiner's transactional contract without a real PTM engine. replicate,
// when set, runs inside the Replicate hook (outside mu).
type fakeEngine struct {
	mu         sync.Mutex
	value      int
	snapshot   int
	begins     int
	commits    int
	replicates int
	rollbacks  int
	batchOps   []int
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
		Commit: func(tx fakeTx, ops int) {
			e.mu.Lock()
			if !e.inTx || e.commits != e.replicates {
				panic("Commit outside a transaction or twice in one round")
			}
			e.commits++
			e.batchOps = append(e.batchOps, ops)
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

func TestSingleThreadExecute(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks())
	err := c.Execute(0, func(tx fakeTx) error {
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
	c := New(e.hooks())
	boom := errors.New("boom")
	err := c.Execute(0, func(tx fakeTx) error {
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
	c := New(e.hooks())
	func() {
		defer func() {
			if p := recover(); p != "kapow" {
				t.Errorf("recovered %v, want kapow", p)
			}
		}()
		c.Execute(0, func(tx fakeTx) error {
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
	c := New(e.hooks())
	var reg hsync.Registry
	const workers, iters = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tid, err := reg.Acquire()
			if err != nil {
				t.Error(err)
				return
			}
			defer reg.Release(tid)
			for i := 0; i < iters; i++ {
				if err := c.Execute(tid, func(tx fakeTx) error {
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
	c := New(e.hooks())
	var reg hsync.Registry
	const workers = 8
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		fail := w%2 == 0
		go func() {
			defer wg.Done()
			tid, _ := reg.Acquire()
			defer reg.Release(tid)
			for i := 0; i < 100; i++ {
				err := c.Execute(tid, func(tx fakeTx) error {
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
	c := New(e.hooks())
	var reg hsync.Registry
	var execs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		fail := w == 0
		go func() {
			defer wg.Done()
			tid, _ := reg.Acquire()
			defer reg.Release(tid)
			for i := 0; i < 50; i++ {
				c.Execute(tid, func(tx fakeTx) error {
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

func TestSequentialReuseOfSlot(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks())
	for i := 0; i < 100; i++ {
		if err := c.Execute(3, func(tx fakeTx) error { tx.add(1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if e.value != 100 {
		t.Errorf("value = %d, want 100", e.value)
	}
}

func TestExecuteSeqMonotoneAndStats(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks())
	var last uint64
	for i := 0; i < 50; i++ {
		seq, err := c.ExecuteSeq(0, func(tx fakeTx) error { tx.add(1); return nil })
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
	if st.MaxBatch != 1 {
		t.Errorf("MaxBatch = %d, want 1 (sequential execution)", st.MaxBatch)
	}
	if st.Combined != 0 {
		t.Errorf("Combined = %d, want 0 (no other threads)", st.Combined)
	}
}

func TestFailedOpReportsSeqZero(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks())
	seq, err := c.ExecuteSeq(0, func(tx fakeTx) error { return errors.New("no") })
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
	// count handed to the Commit hook.
	e := &fakeEngine{}
	c := New(e.hooks())
	var reg hsync.Registry
	const workers, iters = 8, 100
	var mu sync.Mutex
	perSeq := map[uint64]int{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tid, _ := reg.Acquire()
			defer reg.Release(tid)
			for i := 0; i < iters; i++ {
				seq, err := c.ExecuteSeq(tid, func(tx fakeTx) error { tx.add(1); return nil })
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
	// Cross-check each round's size against what the Commit hook saw.
	// Rounds commit in seq order, so the i-th commit is seq i+1.
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.batchOps) != len(perSeq) {
		t.Fatalf("%d commits, %d seqs", len(e.batchOps), len(perSeq))
	}
	total := 0
	for seq, n := range perSeq {
		if got := e.batchOps[seq-1]; got != n {
			t.Errorf("seq %d: commit hook saw %d ops, owners saw %d", seq, got, n)
		}
		total += n
	}
	if total != workers*iters {
		t.Errorf("seq op total = %d, want %d", total, workers*iters)
	}
}

func TestDrainFoldsLateArrivals(t *testing.T) {
	// A second op announced while the combiner is mid-batch must be folded
	// into the same open transaction (same seq), not deferred to its own
	// durability round. The first op blocks inside the transaction until it
	// observes the second announcement.
	e := &fakeEngine{}
	c := New(e.hooks())
	announced := make(chan struct{})
	var seq2 uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		var err error
		// Announce from tid 1 once tid 0's op signals it is running.
		<-announced
		seq2, err = c.ExecuteSeq(1, func(tx fakeTx) error { tx.add(1); return nil })
		if err != nil {
			t.Error(err)
		}
	}()
	seq1, err := c.ExecuteSeq(0, func(tx fakeTx) error {
		tx.add(1)
		close(announced)
		// Wait until the second request is visible in the announcement
		// array so the combiner's rescan is guaranteed to find it.
		for c.slots[1].req.Load() == nil {
			runtime.Gosched()
		}
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
	if st := c.Stats(); st.MaxBatch != 2 {
		t.Errorf("MaxBatch = %d, want 2", st.MaxBatch)
	}
}

func BenchmarkExecuteUncontended(b *testing.B) {
	e := &fakeEngine{}
	c := New(e.hooks())
	op := func(tx fakeTx) error { tx.add(1); return nil }
	for i := 0; i < b.N; i++ {
		if err := c.Execute(0, op); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExecuteDirectFoldsAnnounced pins the direct entry's contract: the
// caller's op runs first, an operation another thread announced is folded
// into the same durability round, and the announcer sees that round.
func TestExecuteDirectFoldsAnnounced(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks())
	var order []int
	var seq2 uint64
	done := make(chan struct{})
	seq1, err := c.ExecuteDirect(func(tx fakeTx) error {
		order = append(order, 1)
		go func() {
			defer close(done)
			var err error
			seq2, err = c.ExecuteSeq(5, func(tx fakeTx) error { order = append(order, 2); return nil })
			if err != nil {
				t.Error(err)
			}
		}()
		for c.slots[5].req.Load() == nil {
			runtime.Gosched()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if seq1 != seq2 || e.commits != 1 || len(order) != 2 || order[0] != 1 {
		t.Fatalf("seqs %d/%d, commits %d, order %v: want one shared round, direct op first", seq1, seq2, e.commits, order)
	}
	if st := c.Stats(); st.Combined != 1 || st.MaxBatch != 2 {
		t.Fatalf("stats %+v: want 1 combined op in a batch of 2", st)
	}
}

// TestExecuteDirectErrorAndPanic: the direct entry rolls back a failing op,
// reports round 0, re-raises a panic, and leaves the combiner usable.
func TestExecuteDirectErrorAndPanic(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks())
	boom := errors.New("boom")
	if seq, err := c.ExecuteDirect(func(tx fakeTx) error { tx.add(3); return boom }); !errors.Is(err, boom) || seq != 0 {
		t.Fatalf("failing op: seq %d, err %v", seq, err)
	}
	func() {
		defer func() {
			if p := recover(); p != "kapow" {
				t.Errorf("recovered %v, want kapow", p)
			}
		}()
		c.ExecuteDirect(func(tx fakeTx) error { tx.add(4); panic("kapow") })
	}()
	if seq, err := c.ExecuteDirect(func(tx fakeTx) error { tx.add(1); return nil }); err != nil || seq == 0 {
		t.Fatalf("op after failures: seq %d, err %v", seq, err)
	}
	if e.value != 1 {
		t.Fatalf("value = %d, want 1 (failed ops rolled back)", e.value)
	}
}

// foldAt returns an op that adds 1 and, on its first run, closes running
// and holds the open transaction until every listed tid has announced, so
// the combiner running it folds those announcements into its batch.
// Announce only after running is closed: an earlier announcer could take
// the writer lock itself.
func foldAt(c *Combiner[fakeTx], running chan struct{}, tids ...int) Op[fakeTx] {
	return func(tx fakeTx) error {
		tx.add(1)
		select {
		case <-running:
			return nil // a solo rerun after the batch failed
		default:
			close(running)
		}
		for _, tid := range tids {
			for c.slots[tid].req.Load() == nil {
				runtime.Gosched()
			}
		}
		return nil
	}
}

// TestReleaseAtDurablePoint pins when each caller gets its result back. An
// announcer folded into another caller's batch returns once Commit has
// returned, while Replicate is still blocked; the caller that ran the round
// — here through ExecuteDirect, the group committer's entry — returns only
// after Replicate, so replies sent on its return still follow it.
func TestReleaseAtDurablePoint(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks())
	gate := make(chan struct{})
	e.replicate = func() { <-gate }

	running := make(chan struct{})
	var seqDirect uint64
	direct := make(chan struct{})
	go func() {
		defer close(direct)
		var err error
		seqDirect, err = c.ExecuteDirect(foldAt(c, running, 1))
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
		seqFolded, err = c.ExecuteSeq(1, func(tx fakeTx) error { tx.add(1); return nil })
		if err != nil {
			t.Error(err)
		}
	}()

	select {
	case <-folded:
	case <-time.After(10 * time.Second):
		t.Fatal("folded announcer still waiting while Replicate is blocked")
	}
	select {
	case <-direct:
		t.Fatal("ExecuteDirect returned before Replicate ran")
	default:
	}
	close(gate)
	<-direct
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.commits != 1 || e.replicates != 1 || seqFolded != seqDirect {
		t.Fatalf("commits %d, replicates %d, seqs %d/%d: want one round, replicated before ExecuteDirect returned",
			e.commits, e.replicates, seqFolded, seqDirect)
	}
}

// TestSoloRerunsReplicateEach: after a batch fails, every operation reruns
// in its own round, and each committed rerun gets its own Replicate before
// the next Begin (the fake panics on a Begin inside an open round).
func TestSoloRerunsReplicateEach(t *testing.T) {
	e := &fakeEngine{}
	c := New(e.hooks())
	running := make(chan struct{})
	errs := make([]error, 3)
	direct := make(chan struct{})
	go func() {
		defer close(direct)
		_, errs[0] = c.ExecuteDirect(foldAt(c, running, 1, 2))
	}()
	<-running
	var wg sync.WaitGroup
	for i, fail := range []bool{true, false} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i+1] = c.ExecuteSeq(i+1, func(tx fakeTx) error {
				tx.add(1)
				if fail {
					return errors.New("rejected")
				}
				return nil
			})
		}()
	}
	wg.Wait()
	<-direct
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
