package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ptm"
)

// MixedResult reports throughput for one data point of Figures 4, 6 and 7.
// Transactions per second follows the paper's accounting: every operation
// is two transactions.
type MixedResult struct {
	WriteTxPerSec float64
	ReadTxPerSec  float64
}

// RunMixed drives writers update operations and readers read operations
// against ds for the given duration, picking uniform random keys in
// [0, keys). Either worker count may be zero.
//
// On machines with fewer cores than workers, each worker yields between
// operations so the scheduler interleaves them at operation granularity
// instead of 10 ms preemption quanta (essential on single-core CI boxes).
func RunMixed(e Engine, ds DataStructure, writers, readers, keys int, dur time.Duration) (MixedResult, error) {
	var stop atomic.Bool
	yield := writers+readers > runtime.NumCPU()
	var wg sync.WaitGroup
	var writeOps, readOps atomic.Uint64
	errs := make(chan error, writers+readers)

	worker := func(seed int64, update bool) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		var ops uint64
		for !stop.Load() {
			key := uint64(rng.Intn(keys))
			if update {
				if err := ds.Update(e, key); err != nil {
					errs <- err
					return
				}
			} else {
				if err := ds.Read(e, key); err != nil {
					errs <- err
					return
				}
			}
			ops++
			if yield {
				runtime.Gosched()
			}
		}
		if update {
			writeOps.Add(ops)
		} else {
			readOps.Add(ops)
		}
	}

	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go worker(int64(w)+1, true)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go worker(int64(r)+1000, false)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	select {
	case err := <-errs:
		return MixedResult{}, err
	default:
	}
	return MixedResult{
		WriteTxPerSec: float64(writeOps.Load()) * 2 / elapsed,
		ReadTxPerSec:  float64(readOps.Load()) * 2 / elapsed,
	}, nil
}

// runSPS is the SPS microbenchmark of §6.6 (Figure 9): a persistent array
// of arrayLen 64-bit integers; each transaction swaps swapsPerTx random
// pairs; single-threaded. Returns swaps per microsecond.
func runSPS(e Engine, arrayLen, swapsPerTx int, dur time.Duration) (float64, error) {
	var arr ptm.Ptr
	if err := e.Update(func(tx ptm.Tx) error {
		var err error
		arr, err = tx.Alloc(arrayLen * 8)
		if err != nil {
			return err
		}
		for i := 0; i < arrayLen; i++ {
			tx.Store64(arr+ptm.Ptr(i*8), uint64(i))
		}
		return nil
	}); err != nil {
		return 0, fmt.Errorf("bench: SPS setup: %w", err)
	}
	rng := rand.New(rand.NewSource(9))
	deadline := time.Now().Add(dur)
	var swaps uint64
	start := time.Now()
	for time.Now().Before(deadline) {
		if err := e.Update(func(tx ptm.Tx) error {
			for s := 0; s < swapsPerTx; s++ {
				i := ptm.Ptr(rng.Intn(arrayLen) * 8)
				j := ptm.Ptr(rng.Intn(arrayLen) * 8)
				a := tx.Load64(arr + i)
				b := tx.Load64(arr + j)
				tx.Store64(arr+i, b)
				tx.Store64(arr+j, a)
			}
			return nil
		}); err != nil {
			return 0, err
		}
		swaps += uint64(swapsPerTx)
	}
	elapsedUs := float64(time.Since(start).Microseconds())
	return float64(swaps) / elapsedUs, nil
}
