package crashtest

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// The replicate scenario aims simulated power failures at the replication
// phase of the core engines' durability round — the window between a
// commit's durable point (state CPY, transaction already durable) and the
// return to IDL, where replication copies only the round's stored cache
// lines back. Under sparse line sets most of the back region is
// intentionally NOT copied during that window, so a crash inside it
// exercises exactly the argument DESIGN.md makes for the round's line set:
// recovery never consults the (volatile) set, it diffs the whole watermark
// prefix against the consistent main region.
//
// Workers store into widely scattered lanes — one cache line per slot — so
// a round's line set is a handful of isolated lines. A ptm.Auditor
// shim (replicateArmer) counts commit durable points and arms the crash
// scheduler a few persistence events after a randomly chosen commit, landing
// the capture inside (or just after) that round's replication. Validation
// replays each worker's surviving operation prefix and compares every lane
// slot byte for byte.
var replicateScenario = &scenario{
	name:     "replicate",
	defaults: Config{Workers: 2, Ops: 12, ChainDepth: 1},
	subjects: []string{"rom", "rom-full", "romlog", "romlr"},
	salt:     "replicate-",
	metric:   "replicate_crash_",
	// mid_replicate: rounds whose captured image was in state CPY — the
	// crash interrupted replication itself, after the durable point and
	// before the return to IDL.
	census: []string{"mid_round", "mid_replicate", "chain", "recovery_crash", "op_survived", "op_lost"},
	round:  replicateRound,
}

// replicateArmer is a ptm.Auditor shim that arms the crash scheduler a few
// persistence events after the target-th commit durable point, so the
// capture lands inside (or just past) that round's replication phase. It
// forwards every callback to the optional inner auditor, keeping waste and
// violation accounting intact when the campaign runs audited.
type replicateArmer struct {
	sched  *pmem.Scheduler
	inner  ptm.Auditor
	policy pmem.CrashPolicy
	target int    // arm at this commit durable point (1-based)
	offset uint64 // persistence events past the durable point

	mu      sync.Mutex
	commits int
	armed   bool
}

func (ra *replicateArmer) TxBegin(engine, kind string) {
	if ra.inner != nil {
		ra.inner.TxBegin(engine, kind)
	}
}

func (ra *replicateArmer) TxEnd() {
	if ra.inner != nil {
		ra.inner.TxEnd()
	}
}

func (ra *replicateArmer) DurablePoint(point string) {
	if ra.inner != nil {
		ra.inner.DurablePoint(point)
	}
	if point != "commit" {
		return
	}
	ra.mu.Lock()
	defer ra.mu.Unlock()
	ra.commits++
	if !ra.armed && ra.commits >= ra.target {
		ra.armed = true
		ra.sched.Arm(ra.offset, ra.policy)
	}
}

func (ra *replicateArmer) EngineClose(engine string) {
	if ra.inner != nil {
		ra.inner.EngineClose(engine)
	}
}

func (ra *replicateArmer) BatchCommitted(ops int) {
	if ba, ok := ra.inner.(ptm.BatchAuditor); ok {
		ba.BatchCommitted(ops)
	}
}

// Lane geometry: each worker owns laneSlots slots, one cache line apart, so
// a transaction's stores land on isolated lines and the round's line set
// stays sparse — the case where line-set replication skips the most media.
const (
	laneSlots = 16
	laneBytes = laneSlots * pmem.LineSize
)

// laneVal is the deterministic value op i of worker w writes into scattered
// slot k; validation replays the surviving prefix with the same function.
func laneVal(w, i, k int) uint64 {
	return uint64(w+1)<<48 | uint64(i)<<16 | uint64(k+1)
}

// laneOps applies operation i (1-based) of worker w to the lane through
// store: slot 0 takes the op counter, then 1-3 scattered single-line stores.
func laneOps(w, i int, store func(slot int, v uint64)) {
	store(0, uint64(i))
	n := 1 + (i+w)%3
	for k := 0; k < n; k++ {
		slot := 1 + (i*7+k*5+w*3)%(laneSlots-1)
		store(slot, laneVal(w, i, k))
	}
}

type replicateWorker struct {
	mustSurvive int // ops known durable strictly before the crash fired
	committed   int
	err         error
}

func replicateRound(r *round) error {
	ecfg := coreConfigs[r.subject]
	e, lanes, err := freshCore(ecfg, laneBytes*r.workers)
	if err != nil {
		return err
	}
	e.SetTrace(r.cfg.Trace)

	sched := r.schedule(r.cfg.ChainDepth, []*pmem.Device{e.Device()}, 1)
	// The armer wraps the (possibly nil) auditor; it arms the scheduler at a
	// random commit's durable point plus a small event offset, so the crash
	// fires while replicate() is copying this round's dirty extents. With
	// flat combining several ops can share one commit, so the target may
	// never be reached — those rounds crash post-workload instead.
	armer := &replicateArmer{
		sched:  sched.Scheduler,
		inner:  sched.auds[0],
		policy: randPolicy(r.rng),
		target: 1 + r.rng.Intn(r.workers*r.cfg.Ops),
		offset: uint64(1 + r.rng.Intn(8)),
	}
	e.SetAuditor(armer)

	workers := make([]*replicateWorker, r.workers)
	var wg sync.WaitGroup
	for w := range workers {
		rw := &replicateWorker{}
		workers[w] = rw
		wrng := r.workerRand(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := e.NewHandle()
			if err != nil {
				rw.err = err
				return
			}
			defer h.Release()
			lane := lanes + ptm.Ptr(w*laneBytes)
			nOps := 1 + wrng.Intn(r.cfg.Ops)
			for i := 1; i <= nOps; i++ {
				err := h.Update(func(tx ptm.Tx) error {
					laneOps(w, i, func(slot int, v uint64) {
						tx.Store64(lane+ptm.Ptr(slot*pmem.LineSize), v)
					})
					return nil
				})
				if err != nil {
					rw.err = fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
				rw.committed = i
				if !sched.Captured() {
					rw.mustSurvive = i
				}
			}
		}()
	}
	wg.Wait()
	for _, rw := range workers {
		if rw.err != nil {
			return fmt.Errorf("%s replicate workload: %w", r.subject, rw.err)
		}
	}

	// A round the armer never reached crashes quiescent, under a policy drawn
	// only then (the draw order a seed replays).
	mid := sched.Captured()
	quiescent := armer.policy
	if !mid {
		quiescent = randPolicy(r.rng)
	}
	imgs := r.capture(sched, quiescent, "mid_round")
	if mid && core.ReplicationPending(imgs[0]) {
		r.rep.add("mid_replicate", 1)
	}
	final, err := reopenCore(r, ecfg, imgs)
	if err != nil {
		return err
	}

	// Each worker's lane against a replay of its surviving operation prefix —
	// every slot, not just the counter, so a partially replicated (or
	// partially recovered) scattered store cannot hide.
	lanesGot := make([][]uint64, r.workers)
	err = final.Read(func(tx ptm.Tx) error {
		p := tx.Root(0)
		for w := range lanesGot {
			vals := make([]uint64, laneSlots)
			for s := range vals {
				vals[s] = tx.Load64(p + ptm.Ptr(w*laneBytes+s*pmem.LineSize))
			}
			lanesGot[w] = vals
		}
		return nil
	})
	if err != nil {
		return r.fail("reading recovered lanes: %v", err)
	}
	for w, rw := range workers {
		got := lanesGot[w]
		n := int(got[0])
		if n < rw.mustSurvive || n > rw.committed {
			return r.fail("worker %d: recovered count %d outside committed range [%d,%d]",
				w, n, rw.mustSurvive, rw.committed)
		}
		r.rep.add("op_survived", uint64(n))
		r.rep.add("op_lost", uint64(rw.committed-n))
		want := make([]uint64, laneSlots)
		for i := 1; i <= n; i++ {
			laneOps(w, i, func(slot int, v uint64) { want[slot] = v })
		}
		for s := range want {
			if got[s] != want[s] {
				return r.fail("worker %d slot %d: recovered %#x, replay of %d surviving ops gives %#x",
					w, s, got[s], n, want[s])
			}
		}
	}
	return probeCore(r, final)
}
