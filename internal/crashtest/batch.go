package crashtest

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// The batch scenario aims simulated power failures at the flat combiner's
// batched durability rounds and checks the property the batching design owes
// its users — a combined batch is crash-atomic. Every operation UpdateBatched
// reports under one batch sequence number became durable together or not at
// all, and durability respects batch commit order (the recovered state is a
// prefix of the sequence of committed rounds, never a subset with holes).
//
// Each worker owns one 8-byte slot of a shared persistent array and writes
// an increasing counter into it, one batched update per increment, recording
// the batch sequence number of every commit. After the crash chain the
// recovered slot values reveal exactly which operations survived; the
// recorded sequence numbers then let the harness assert that no batch was
// split and no later round survived an earlier round's loss.
var batchScenario = &scenario{
	name:     "batch",
	defaults: Config{Workers: 4, Ops: 16, ChainDepth: 1},
	subjects: []string{"rom", "romlog", "romlr"},
	salt:     "batch-",
	metric:   "batch_crash_",
	// multi_op_round: rounds whose workload committed at least one durability
	// round carrying more than one operation — the situations the
	// all-or-nothing assertion is about. op_survived / op_lost: workload
	// operations by whether recovery exposed their effect.
	census: []string{"mid_batch", "multi_op_round", "chain", "recovery_crash", "op_survived", "op_lost"},
	round:  batchRound,
}

// freshCore builds a core engine whose root 0 points at a committed array of
// size bytes, so every captured image reopens through recovery, never format.
func freshCore(ecfg core.Config, size int) (*core.Engine, ptm.Ptr, error) {
	e, err := core.New(crashRegion, ecfg)
	if err != nil {
		return nil, 0, fmt.Errorf("building fresh %s engine: %w", ecfg.Variant, err)
	}
	var arr ptm.Ptr
	err = e.Update(func(tx ptm.Tx) error {
		p, err := tx.Alloc(size)
		if err != nil {
			return err
		}
		tx.SetRoot(0, p)
		arr = p
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s setup: %w", ecfg.Variant, err)
	}
	return e, arr, nil
}

// reopenCore runs the crash chain for a lone core engine and checks the
// recovered engine's own invariants.
func reopenCore(r *round, ecfg core.Config, imgs [][]byte) (*core.Engine, error) {
	final, err := reopenChain(r, imgs, 1,
		func(devs []*pmem.Device, auds []ptm.Auditor) (*core.Engine, error) {
			c := ecfg
			c.Audit = auds[0]
			return core.Open(devs[0], c)
		},
		func(imgs [][]byte) bool { return core.RecoveryPending(imgs[0]) })
	if err != nil {
		return nil, err
	}
	if err := final.CheckHeap(); err != nil {
		return nil, r.fail("heap after recovery: %v", err)
	}
	if off := final.Verify(); off >= 0 {
		return nil, r.fail("twin copies diverge at offset %d", off)
	}
	return final, nil
}

// probeCore checks the recovered engine keeps working: one more durable
// write, read back.
func probeCore(r *round, e *core.Engine) error {
	probe := uint64(r.n + 1)
	err := e.Update(func(tx ptm.Tx) error {
		tx.Store64(tx.Root(0), probe)
		return nil
	})
	if err != nil {
		return r.fail("recovered engine unusable: %v", err)
	}
	var got uint64
	err = e.Read(func(tx ptm.Tx) error {
		got = tx.Load64(tx.Root(0))
		return nil
	})
	if err != nil || got != probe {
		return r.fail("post-recovery write not readable: got %d want %d err=%v", got, probe, err)
	}
	return nil
}

// commitOrder splits every worker's commits at its recovered count: seqs[w]
// holds the batch sequence number of each of worker w's acknowledged
// operations, of which recovery exposed the first recovered[w]. It returns
// the latest batch any surviving operation rode and the earliest any lost
// one did. All-or-nothing per batch, durable in batch commit order, means
// survivedMax < lostMin: a split batch (one op durable, a same-seq op lost)
// or a hole (later batch durable, earlier lost) both violate it.
func commitOrder(seqs [][]uint64, recovered []int) (survivedMax, lostMin uint64) {
	lostMin = ^uint64(0)
	for w, ws := range seqs {
		for i, seq := range ws {
			if i < recovered[w] {
				survivedMax = max(survivedMax, seq)
			} else {
				lostMin = min(lostMin, seq)
			}
		}
	}
	return survivedMax, lostMin
}

// batchWorker records one worker's committed operations. Operation i
// (1-based) stores the value i into the worker's slot, so the recovered slot
// value equals the worker's surviving operation count.
type batchWorker struct {
	seqs        []uint64 // seqs[i-1] is the batch round that committed op i
	mustSurvive int      // ops known durable strictly before the crash fired
	err         error
}

func batchRound(r *round) error {
	ecfg := coreConfigs[r.subject]
	e, slots, err := freshCore(ecfg, 8*r.workers)
	if err != nil {
		return err
	}
	e.SetTrace(r.cfg.Trace)

	sched := r.schedule(r.cfg.ChainDepth, []*pmem.Device{e.Device()}, 1)
	e.SetAuditor(sched.auds[0])
	policy := randPolicy(r.rng)
	// Batched commits amortize persistence events across ops, so the event
	// budget per op is lower than the map campaign's; the range still
	// overshoots so some rounds crash post-workload.
	sched.Arm(uint64(1+r.rng.Intn(r.workers*r.cfg.Ops*12+32)), policy)

	base := e.Stats()
	workers := make([]*batchWorker, r.workers)
	var wg sync.WaitGroup
	for w := range workers {
		bw := &batchWorker{}
		workers[w] = bw
		wrng := r.workerRand(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := e.NewHandle()
			if err != nil {
				bw.err = err
				return
			}
			defer h.Release()
			bh := h.(interface {
				UpdateBatched(func(ptm.Tx) error) (uint64, error)
			})
			nOps := 1 + wrng.Intn(r.cfg.Ops)
			slot := slots + ptm.Ptr(8*w)
			for i := 1; i <= nOps; i++ {
				val := uint64(i)
				seq, err := bh.UpdateBatched(func(tx ptm.Tx) error {
					tx.Store64(slot, val)
					return nil
				})
				if err != nil {
					bw.err = fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
				if seq == 0 {
					bw.err = fmt.Errorf("worker %d op %d: committed with batch seq 0", w, i)
					return
				}
				bw.seqs = append(bw.seqs, seq)
				if !sched.Captured() {
					bw.mustSurvive = i
				}
			}
		}()
	}
	wg.Wait()
	for _, bw := range workers {
		if bw.err != nil {
			return fmt.Errorf("%s batch workload: %w", r.subject, bw.err)
		}
	}
	if st := e.Stats(); st.BatchOps-base.BatchOps > st.Batches-base.Batches {
		r.rep.add("multi_op_round", 1)
	}

	final, err := reopenCore(r, ecfg, r.capture(sched, policy, "mid_batch"))
	if err != nil {
		return err
	}

	// Per-worker prefixes, then batch atomicity across workers.
	recovered := make([]int, r.workers)
	err = final.Read(func(tx ptm.Tx) error {
		p := tx.Root(0)
		for w := range recovered {
			recovered[w] = int(tx.Load64(p + ptm.Ptr(8*w)))
		}
		return nil
	})
	if err != nil {
		return r.fail("reading recovered slots: %v", err)
	}
	seqs := make([][]uint64, r.workers)
	for w, bw := range workers {
		n := recovered[w]
		if n < bw.mustSurvive || n > len(bw.seqs) {
			return r.fail("worker %d: recovered count %d outside committed range [%d,%d]",
				w, n, bw.mustSurvive, len(bw.seqs))
		}
		r.rep.add("op_survived", uint64(n))
		r.rep.add("op_lost", uint64(len(bw.seqs)-n))
		seqs[w] = bw.seqs
	}
	if survivedMax, lostMin := commitOrder(seqs, recovered); survivedMax >= lostMin {
		return r.fail("batch atomicity violated: round %d (or earlier) lost while round %d survived",
			lostMin, survivedMax)
	}
	return probeCore(r, final)
}
