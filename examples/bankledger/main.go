// Bank-ledger example: concurrent transfers and wait-free auditors on a
// RomulusLR engine. Updates go through flat combining (many transfers can
// share one durable transaction); read-only audits use the Left-Right
// mechanism and never block, even while a transfer is in flight (§5.3 of
// the paper).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	romulus "repro"
)

const (
	accounts = 64
	initial  = 1_000
)

func main() {
	eng, err := romulus.New(8<<20, romulus.Config{Variant: romulus.RomLR})
	if err != nil {
		log.Fatal(err)
	}
	var ledger romulus.Ptr
	err = eng.Update(func(tx romulus.Tx) error {
		p, err := tx.Alloc(accounts * 8)
		if err != nil {
			return err
		}
		for i := 0; i < accounts; i++ {
			tx.Store64(p+romulus.Ptr(i*8), initial)
		}
		tx.SetRoot(0, p)
		ledger = p
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	var transfers, audits atomic.Int64
	stop := make(chan struct{})

	// Four tellers moving money around; each transfer is one durable tx.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2_000; i++ {
				from := romulus.Ptr(rng.Intn(accounts) * 8)
				to := romulus.Ptr(rng.Intn(accounts) * 8)
				amount := uint64(rng.Intn(20))
				eng.Update(func(tx romulus.Tx) error {
					balance := tx.Load64(ledger + from)
					if balance < amount {
						return nil
					}
					tx.Store64(ledger+from, balance-amount)
					tx.Store64(ledger+to, tx.Load64(ledger+to)+amount)
					return nil
				})
				transfers.Add(1)
			}
		}(int64(w))
	}

	// Two auditors continuously checking that money is conserved. Under
	// RomulusLR these reads are wait-free: they run against the back copy
	// while a writer mutates main.
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				eng.Read(func(tx romulus.Tx) error {
					var sum uint64
					for i := 0; i < accounts; i++ {
						sum += tx.Load64(ledger + romulus.Ptr(i*8))
					}
					if sum != accounts*initial {
						log.Fatalf("audit failed: sum = %d", sum)
					}
					return nil
				})
				audits.Add(1)
				runtime.Gosched()
			}
		}()
	}

	// Wait for the tellers, then stop the auditors.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for transfers.Load() < 4*2_000 {
		runtime.Gosched()
	}
	close(stop)
	<-done

	s := eng.Stats()
	fmt.Printf("transfers: %d  audits: %d  combined ops: %d\n",
		transfers.Load(), audits.Load(), s.Combined)
	eng.Read(func(tx romulus.Tx) error {
		var sum uint64
		for i := 0; i < accounts; i++ {
			sum += tx.Load64(ledger + romulus.Ptr(i*8))
		}
		fmt.Printf("final balance sum: %d (expected %d) — money conserved\n", sum, accounts*initial)
		return nil
	})
}
