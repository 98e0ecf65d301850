package core_test

import (
	"sync"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// newAudited builds an engine whose device is shadowed by a durability
// auditor from the first transaction on.
func newAudited(t *testing.T, cfg core.Config) (*core.Engine, *audit.Auditor) {
	t.Helper()
	dev := pmem.New(core.MinRegionSize*2+4096, cfg.Model)
	a := audit.New(dev)
	a.Attach()
	cfg.Audit = a
	e, err := core.Open(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, a
}

// TestNoFenceWasteUnderDedupFlush pins the two waste classes the combined-
// commit flush discipline eliminates: with every write-back deferred to the
// durable point no store can land on a flush-queued line (store_queued) and
// no fence fires with an empty queue (fence_noop) — including for empty
// update transactions, which previously paid two no-op fences each.
func TestNoFenceWasteUnderDedupFlush(t *testing.T) {
	for _, v := range []core.Variant{core.Rom, core.RomLog, core.RomLR} {
		t.Run(v.String(), func(t *testing.T) {
			e, a := newAudited(t, core.Config{Variant: v})
			defer e.Close()
			// Stores that repeatedly dirty the same cache line within one
			// transaction — the pattern that made the eager discipline
			// re-flush queued lines.
			for i := 0; i < 50; i++ {
				err := e.Update(func(tx ptm.Tx) error {
					p, err := tx.Alloc(64)
					if err != nil {
						return err
					}
					for j := 0; j < 8; j++ {
						tx.Store64(p+ptm.Ptr(8*j), uint64(i*j))
					}
					return tx.Free(p)
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			// Empty update transactions: no stores at all.
			for i := 0; i < 20; i++ {
				if err := e.Update(func(tx ptm.Tx) error { return nil }); err != nil {
					t.Fatal(err)
				}
			}
			tot := a.Totals()
			if tot.StoreQueued != 0 {
				t.Errorf("store_queued = %d, want 0 (the durable point writes lines back after the last store)", tot.StoreQueued)
			}
			if tot.FenceNoop != 0 {
				t.Errorf("fence_noop = %d, want 0 (empty-queue fences elided)", tot.FenceNoop)
			}
			if tot.Violations != 0 {
				t.Errorf("auditor recorded %d violations", tot.Violations)
			}
		})
	}
}

// TestEagerPwbAblationStillWastes proves the pin above is not vacuous: the
// EagerPwb ablation reinstates per-store write-backs and must regenerate
// store_queued waste on the same workload.
func TestEagerPwbAblationStillWastes(t *testing.T) {
	e, a := newAudited(t, core.Config{Variant: core.RomLog, EagerPwb: true})
	defer e.Close()
	err := e.Update(func(tx ptm.Tx) error {
		p, err := tx.Alloc(64)
		if err != nil {
			return err
		}
		for j := 0; j < 8; j++ {
			tx.Store64(p+ptm.Ptr(8*j), uint64(j))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tot := a.Totals(); tot.StoreQueued == 0 {
		t.Error("eager-pwb ablation produced no store_queued waste; pin is vacuous")
	}
	if tot := a.Totals(); tot.Violations != 0 {
		t.Errorf("eager ablation must still be correct; %d violations", tot.Violations)
	}
}

// TestEmptyUpdatePaysTwoFences pins the fence floor of an empty update
// transaction after elision: only the MUT publish fence and the commit-marker
// psync remain (fences 2 and 4 have provably empty queues).
func TestEmptyUpdatePaysTwoFences(t *testing.T) {
	e, err := core.New(1<<20, core.Config{Variant: core.RomLog})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	before := e.Device().Stats()
	if err := e.Update(func(tx ptm.Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	after := e.Device().Stats()
	if got := after.Pfences + after.Psyncs - before.Pfences - before.Psyncs; got != 2 {
		t.Errorf("empty update paid %d fences, want 2", got)
	}
}

// TestBatchAccounting pins the batch plumbing end to end: engine stats and
// UpdateBatched sequence numbers must agree, the auditor must check one
// durable point per batch, and under concurrent writers at least one batch
// must carry multiple ops so fences amortize below the per-tx floor.
func TestBatchAccounting(t *testing.T) {
	e, a := newAudited(t, core.Config{Variant: core.RomLog})
	defer e.Close()
	durable := a.Totals().DurableChecks
	const workers, iters = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				seq, err := e.UpdateBatched(func(tx ptm.Tx) error {
					tx.Store64(0, uint64(i))
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if seq == 0 {
					t.Error("committed op reported batch seq 0")
					return
				}
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	if st.BatchOps != workers*iters {
		t.Errorf("BatchOps = %d, want %d", st.BatchOps, workers*iters)
	}
	if st.Batches == 0 || st.Batches > st.BatchOps {
		t.Errorf("Batches = %d out of range (BatchOps %d)", st.Batches, st.BatchOps)
	}
	tot := a.Totals()
	if tot.DurableChecks != durable+st.Batches {
		t.Errorf("auditor checked %d durable points, want %d: one per batch after open's %d",
			tot.DurableChecks, durable+st.Batches, durable)
	}
	if tot.Violations != 0 {
		t.Errorf("auditor recorded %d violations", tot.Violations)
	}
	if st.Batches >= st.BatchOps {
		t.Errorf("%d batches retired %d ops; concurrent writers never shared a durability round", st.Batches, st.BatchOps)
	}
	t.Logf("batches=%d ops=%d", st.Batches, st.BatchOps)
}
