package flatcombine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// benchHooks builds hooks over a plain mutex with an optional simulated
// commit cost, standing in for an engine's durability round. commits counts
// durability rounds so benchmarks can report fence amortization.
func benchHooks(commitCost time.Duration, commits *atomic.Uint64) Hooks[int] {
	var mu sync.Mutex
	return Hooks[int]{
		Begin: func() int { mu.Lock(); return 0 },
		Commit: func(tx int) {
			if commitCost > 0 {
				spinFor(commitCost)
			}
			commits.Add(1)
		},
		Replicate: func(tx int) { mu.Unlock() },
		Rollback:  func(tx int) { mu.Unlock() },
	}
}

// spinFor busy-waits (rather than sleeping) so the simulated durability
// round occupies the combiner the way device latency would, without
// yielding the processor mid-round.
func spinFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// BenchmarkCombinerContention measures batched-commit throughput and batch
// formation at increasing writer counts. ops/batch and fence-rounds/op (the
// reciprocal) are the quantities the combined-commit design optimizes: as
// writers are added, rounds/op must fall below 1.
func BenchmarkCombinerContention(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var commits atomic.Uint64
			c := New(benchHooks(0, &commits), 0)
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / workers
			if per == 0 {
				per = 1
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := benchRequest()
					for i := 0; i < per; i++ {
						c.Execute(r)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			st := c.Stats()
			if st.Batches > 0 {
				b.ReportMetric(float64(st.BatchOps)/float64(st.Batches), "ops/batch")
				b.ReportMetric(float64(st.Batches)/float64(st.BatchOps), "rounds/op")
			}
		})
	}
}

// BenchmarkCombinerDurableCommit repeats the contention sweep with a
// simulated 2µs durability round (roughly a pcm-class fence sequence),
// showing the amortized cost per operation falling as batches absorb more
// writers.
func BenchmarkCombinerDurableCommit(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var commits atomic.Uint64
			c := New(benchHooks(2*time.Microsecond, &commits), 0)
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / workers
			if per == 0 {
				per = 1
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := benchRequest()
					for i := 0; i < per; i++ {
						c.Execute(r)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			st := c.Stats()
			if st.Batches > 0 {
				b.ReportMetric(float64(st.BatchOps)/float64(st.Batches), "ops/batch")
			}
		})
	}
}

// benchRequest returns a one-operation request that does nothing, for a
// worker to resubmit.
func benchRequest() *Request[int] {
	return &Request[int]{Op: func(tx int, _ int) error { return nil }, Errs: make([]error, 1)}
}

// BenchmarkRound prices one uncontended combining round — the queue's lock
// and slot, the rescan, one operation, the commit hooks — as ns/round.
func BenchmarkRound(b *testing.B) {
	var commits atomic.Uint64
	c := New(benchHooks(0, &commits), 0)
	r := benchRequest()
	for i := 0; i < b.N; i++ {
		c.Execute(r)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(commits.Load()), "ns/round")
}
