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
		Commit: func(tx int, ops int) {
			if commitCost > 0 {
				spinFor(commitCost)
			}
			commits.Add(1)
			mu.Unlock()
		},
		Rollback: func(tx int) { mu.Unlock() },
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
			c := New(benchHooks(0, &commits))
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / workers
			if per == 0 {
				per = 1
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						c.Execute(tid, func(tx int) error { return nil })
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			st := c.Stats()
			if st.Batches > 0 {
				b.ReportMetric(float64(st.BatchOps)/float64(st.Batches), "ops/batch")
				b.ReportMetric(float64(st.Batches)/float64(st.BatchOps), "rounds/op")
			}
			b.ReportMetric(float64(st.MaxBatch), "max-batch")
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
			c := New(benchHooks(2*time.Microsecond, &commits))
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / workers
			if per == 0 {
				per = 1
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						c.Execute(tid, func(tx int) error { return nil })
					}
				}(w)
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

// BenchmarkRound prices one uncontended combining round — writer lock, the
// gather scans, one operation, the commit hooks — as ns/round. The scans
// stop at the announced high-water mark, so with one writer they cover one
// slot, not all hsync.MaxThreads. "announce" is the embedded path (announce,
// yield, combine); "direct" is the single-writer entry a batching caller
// takes.
func BenchmarkRound(b *testing.B) {
	op := func(tx int) error { return nil }
	for _, direct := range []bool{false, true} {
		name := "announce"
		if direct {
			name = "direct"
		}
		b.Run(name, func(b *testing.B) {
			var commits atomic.Uint64
			c := New(benchHooks(0, &commits))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if direct {
					c.ExecuteDirect(op)
				} else {
					c.Execute(0, op)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(commits.Load()), "ns/round")
		})
	}
}
