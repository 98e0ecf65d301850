package crashtest

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/blackbox"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/server"
	"repro/internal/shard"
)

// The rounds scenario aims simulated power failures at durability rounds,
// whoever formed them, and checks the paper's claim (§4.1 recovery, §5.1 flat
// combining): a crash anywhere in a round, inside the back copy too, exposes
// a prefix of the committed rounds, each all-or-nothing. One subject per code
// path: core engines whose workers commit through UpdateBatched, so the flat
// combiner forms the rounds (rom is Algorithm 1, FullReplicate; romlog;
// romlr), and a one-shard flight-recorded store behind the server's group
// committer, whose leader forms them from connections pipelining windows of
// 1-4 operations (group-romlog, group-romlr).
//
// Every worker owns a lane — laneSlots words one cache line apart on an
// engine, one key on the store — and operation i writes deterministic values
// into it, recording the round that committed it. Each round's stream aims
// the crash uniformly over persistence events, 1-8 events past a random
// commit's durable point (replicateArmer), or at the event right after a
// random ack; the workload yields at every fence, so a woken waiter observes
// an ack released before its round's durable point. Validation is the same
// for every subject: each lane is the replay of a surviving prefix between
// what was acked before the capture and what was acked at all; no surviving
// operation rode a later round than a lost one; the group subjects' flight
// recorder tells no lie; and a write after recovery succeeds through the
// same entry.
var roundsScenario = &scenario{
	name:     "rounds",
	defaults: Config{Workers: 4, Ops: 12, ChainDepth: 1},
	subjects: []string{"rom", "romlog", "romlr", "group-romlog", "group-romlr"},
	salt:     "rounds-",
	metric:   "rounds_crash_",
	// mid_replicate: mid_round captures in state CPY, after the durable
	// point and before the back copy finished. multi_worker_round: rounds
	// whose workload committed a durability round carrying more than one
	// worker's operations. op_survived / op_lost: acked operations by
	// whether recovery exposed them. flight_rounds: group rounds whose
	// recovered flight recorder held records; flight_inflight: the subset
	// naming a batch started but not committed at the crash.
	census: []string{"mid_round", "mid_replicate", "multi_worker_round", "chain", "recovery_crash",
		"op_survived", "op_lost", "flight_rounds", "flight_inflight"},
	round:  roundsRound,
	verify: roundsVerify,
}

// roundsVerify rejects a campaign of 25 rounds or more that never exercised
// what its assertions are about.
func roundsVerify(rep *Report) error {
	need := []string{"mid_round", "mid_replicate", "op_survived", "op_lost"}
	if rep.Workers >= 2 {
		need = append(need, "multi_worker_round")
	}
	if strings.HasPrefix(rep.Engine, "group-") {
		need = append(need, "flight_rounds")
	}
	for _, name := range need {
		if rep.Rounds >= 25 && rep.Count(name) == 0 {
			return fmt.Errorf("crashtest: rounds: %s: %d rounds with %s = 0 — the campaign is vacuous",
				rep.Engine, rep.Rounds, name)
		}
	}
	return nil
}

// groupMaxBatch bounds one group batch — small, so rounds commit many batches
// and crashes land inside them.
const groupMaxBatch = 8

// Lane geometry: an engine lane is laneSlots words one cache line apart, so
// a round's line set is a handful of isolated lines — the case where
// line-set replication skips the most media.
const (
	laneSlots = 16
	laneBytes = laneSlots * pmem.LineSize
)

// laneOps applies operation i (1-based) of worker w through store: slot 0
// takes the op counter, then 1-3 scattered single-line stores.
func laneOps(w, i int, store func(slot int, v uint64)) {
	store(0, uint64(i))
	for k := 0; k < 1+(i+w)%3; k++ {
		store(1+(i*7+k*5+w*3)%(laneSlots-1), uint64(w+1)<<48|uint64(i)<<16|uint64(k+1))
	}
}

// laneReplay is worker w's lane after its first n operations.
func laneReplay(w, n int) []uint64 {
	lane := make([]uint64, laneSlots)
	for i := 1; i <= n; i++ {
		laneOps(w, i, func(slot int, v uint64) { lane[slot] = v })
	}
	return lane
}

// laneSystem is one subject's system as the rounds workload drives it.
type laneSystem struct {
	devs        []*pmem.Device // devs[0] is scheduled, the rest carried
	setAuditors func(auds []ptm.Auditor)
	pipelined   bool // workers keep a window of submissions in flight
	// submit starts worker w's operation i (1-based); wait yields the
	// durability round that committed it.
	submit func(w, i int) (wait func() (uint64, error))
	lane   func(w int) ([]uint64, error)
	done   func()           // ends the workload: a committer drained
	flight *blackbox.Report // a reopened store's flight report (group subjects)
}

// openLanes builds the round's subject: fresh when imgs is nil, else
// through the crash chain from imgs.
func openLanes(r *round, imgs [][]byte) (*laneSystem, error) {
	variant, group := strings.CutPrefix(r.subject, "group-")
	ecfg := coreConfigs[variant]
	if !group {
		var e *core.Engine
		var err error
		if imgs == nil {
			e, err = freshCore(ecfg, laneBytes*r.workers)
		} else {
			e, err = reopenCore(r, ecfg, imgs)
		}
		if err != nil {
			return nil, err
		}
		return engineLanes(e), nil
	}
	opts := shardOpts(1, ecfg.Variant)
	opts.Blackbox = true
	if imgs == nil {
		st, err := shard.Open(opts)
		if err != nil {
			return nil, fmt.Errorf("building fresh %s store: %w", variant, err)
		}
		return groupLanes(st), nil
	}
	st, err := reopenShards(r, opts, imgs, 1, func(imgs [][]byte) bool { return core.RecoveryPending(imgs[0]) })
	if err != nil {
		return nil, err
	}
	sys := groupLanes(st)
	if sys.flight = st.FlightReports()[0]; sys.flight == nil {
		return nil, r.fail("blackbox store reopened without a flight report")
	}
	return sys, nil
}

// engineLanes drives engine e: worker w's lane starts laneBytes*w into the
// array at root 0, and its operations commit through UpdateBatched.
func engineLanes(e *core.Engine) *laneSystem {
	return &laneSystem{
		devs:        []*pmem.Device{e.Device()},
		setAuditors: func(auds []ptm.Auditor) { e.SetAuditor(auds[0]) },
		submit: func(w, i int) func() (uint64, error) {
			seq, err := e.UpdateBatched(func(tx ptm.Tx) error {
				lane := tx.Root(0) + ptm.Ptr(w*laneBytes)
				laneOps(w, i, func(slot int, v uint64) { tx.Store64(lane+ptm.Ptr(slot*pmem.LineSize), v) })
				return nil
			})
			return func() (uint64, error) { return seq, err }
		},
		lane: func(w int) ([]uint64, error) {
			vals := make([]uint64, laneSlots)
			err := e.Read(func(tx ptm.Tx) error {
				lane := tx.Root(0) + ptm.Ptr(w*laneBytes)
				for s := range vals {
					vals[s] = tx.Load64(lane + ptm.Ptr(s*pmem.LineSize))
				}
				return nil
			})
			return vals, err
		},
		done: func() {},
	}
}

// groupLanes drives store st through a group committer: worker w is a
// connection, its lane one key holding the encoded lane words.
func groupLanes(st *shard.Store) *laneSystem {
	cm := server.NewCommitter(st, server.GroupOptions{MaxBatch: groupMaxBatch})
	key := func(w int) []byte { return fmt.Appendf(nil, "lane%02d", w) }
	return &laneSystem{
		devs:        st.Devices(),
		setAuditors: st.SetAuditors,
		pipelined:   true,
		submit: func(w, i int) func() (uint64, error) {
			var val []byte
			for _, v := range laneReplay(w, i) {
				val = binary.LittleEndian.AppendUint64(val, v)
			}
			p := cm.Submit(0, uint64(w+1), "set", nil, func(tx ptm.Tx, db *kvstore.DB) (string, error) {
				return "OK", db.PutTx(tx, key(w), val)
			})
			return func() (uint64, error) {
				if reply := p.Wait(); reply != "OK" {
					return 0, fmt.Errorf("reply %q", reply)
				}
				return p.Seq(), nil
			}
		},
		lane: func(w int) ([]uint64, error) {
			v, err := st.Get(key(w))
			if errors.Is(err, shard.ErrNotFound) {
				v, err = make([]byte, 8*laneSlots), nil
			}
			if err != nil || len(v) != 8*laneSlots {
				return nil, fmt.Errorf("lane key holds %d bytes: %v", len(v), err)
			}
			vals := make([]uint64, laneSlots)
			for s := range vals {
				vals[s] = binary.LittleEndian.Uint64(v[8*s:])
			}
			return vals, nil
		},
		done: cm.Close,
	}
}

// laneWorker records one worker's acked operations.
type laneWorker struct {
	seqs        []uint64 // seqs[i-1] is the durability round that committed op i
	mustSurvive int      // ops acked strictly before the crash fired
	err         error
}

func roundsRound(r *round) error {
	sys, err := openLanes(r, nil)
	if err != nil {
		return err
	}
	sched := r.schedule(r.cfg.ChainDepth, sys.devs, 1)
	// Yield at every workload fence, so a goroutine a round woke runs before
	// the round's durable point: a release that early is then observed.
	dev := sys.devs[0]
	dev.SetHooks(pmem.ChainHooks(dev.Hooks(), &pmem.Hooks{Fence: runtime.Gosched}))
	policy := randPolicy(r.rng)
	auds := slices.Clone(sched.auds)
	onAck := func(w, k int) {}
	switch r.rng.Intn(3) {
	case 0:
		// Uniform; the range overshoots so some rounds crash quiescent.
		sched.Arm(uint64(1+r.rng.Intn(r.workers*r.cfg.Ops*16+64)), policy)
	case 1:
		// Into a random commit's back copy. Combined rounds carry several
		// operations, so the target may never come: those rounds crash
		// quiescent.
		auds[0] = &replicateArmer{Auditor: cmp.Or[ptm.Auditor](auds[0], nopAuditor{}), sched: sched.Scheduler,
			policy: policy, target: 1 + r.rng.Intn(r.workers*r.cfg.Ops), offset: uint64(1 + r.rng.Intn(8))}
	case 2:
		// At the next event after a random ack: an ack released before its
		// round's durable point meets the crash inside that round.
		ackW, ackK := r.rng.Intn(r.workers), 1+r.rng.Intn(r.cfg.Ops)
		onAck = func(w, k int) {
			if w == ackW && k == ackK {
				sched.Arm(1, policy)
			}
		}
	}
	sys.setAuditors(auds)

	// Each worker submits its operations, up to window in flight, and
	// records every ack in order.
	workers := make([]*laneWorker, r.workers)
	var wg sync.WaitGroup
	for w := range workers {
		lw := &laneWorker{}
		workers[w] = lw
		wrng := r.workerRand(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			nOps, window := 1+wrng.Intn(r.cfg.Ops), 1
			if sys.pipelined {
				window = 1 + wrng.Intn(4)
			}
			var waits []func() (uint64, error)
			for i := 1; i <= nOps || len(waits) > 0; {
				if i <= nOps && len(waits) < window {
					waits = append(waits, sys.submit(w, i))
					i++
					continue
				}
				seq, err := waits[0]()
				if waits = waits[1:]; err == nil && seq == 0 {
					err = errors.New("committed in round 0")
				}
				if err != nil {
					lw.err = fmt.Errorf("worker %d op %d: %w", w, len(lw.seqs)+1, err)
					return
				}
				if lw.seqs = append(lw.seqs, seq); !sched.Captured() {
					lw.mustSurvive = len(lw.seqs)
				}
				onAck(w, len(lw.seqs))
			}
		}()
	}
	wg.Wait()
	sys.done()
	for _, lw := range workers {
		if lw.err != nil {
			return fmt.Errorf("%s rounds workload: %w", r.subject, lw.err)
		}
	}
	owner := map[uint64]int{}
shared:
	for w, lw := range workers {
		for _, seq := range lw.seqs {
			if o, ok := owner[seq]; ok && o != w {
				r.rep.add("multi_worker_round", 1)
				break shared
			}
			owner[seq] = w
		}
	}

	mid := sched.Captured()
	imgs := r.capture(sched, policy, "mid_round")
	if mid && core.ReplicationPending(imgs[0]) {
		r.rep.add("mid_replicate", 1)
	}
	final, err := openLanes(r, imgs)
	if err != nil {
		return err
	}
	defer final.done()

	recovered := make([]int, r.workers)
	seqs := make([][]uint64, r.workers)
	var ackedBefore uint64 // latest round acked before the capture
	for w, lw := range workers {
		got, err := final.lane(w)
		if err != nil {
			return r.fail("reading lane %d: %v", w, err)
		}
		n := int(got[0])
		if n < lw.mustSurvive || n > len(lw.seqs) {
			return r.fail("worker %d: recovered count %d outside acked range [%d,%d]",
				w, n, lw.mustSurvive, len(lw.seqs))
		}
		if want := laneReplay(w, n); !slices.Equal(got, want) {
			return r.fail("worker %d: recovered lane %x, replay of %d surviving ops gives %x", w, got, n, want)
		}
		r.rep.add("op_survived", uint64(n))
		r.rep.add("op_lost", uint64(len(lw.seqs)-n))
		recovered[w], seqs[w] = n, lw.seqs
		for _, seq := range lw.seqs[:lw.mustSurvive] {
			ackedBefore = max(ackedBefore, seq)
		}
	}
	survivedMax, lostMin := commitOrder(seqs, recovered)
	if survivedMax >= lostMin {
		return r.fail("round atomicity violated: round %d (or earlier) lost while round %d survived",
			lostMin, survivedMax)
	}
	if fr := final.flight; fr != nil {
		// A batch's BatchStart record is fenced before its transaction and
		// its BatchCommit record follows its psync (ring wrap drops only
		// older batches).
		if ackedBefore > 0 && (fr.Empty() || fr.MaxBatchStarted < ackedBefore) {
			return r.fail("flight recorder names batch %d as last started, but batch %d was acked before the crash",
				fr.MaxBatchStarted, ackedBefore)
		}
		if lostMin != ^uint64(0) && fr.MaxBatchCommitted >= lostMin {
			return r.fail("flight recorder claims batch %d committed, but batch %d lost acked data",
				fr.MaxBatchCommitted, lostMin)
		}
		if !fr.Empty() {
			r.rep.add("flight_rounds", 1)
			if len(fr.InFlight) > 0 {
				r.rep.add("flight_inflight", 1)
			}
		}
	}

	// The recovered system keeps serving: worker 0's next operation, through
	// the same entry.
	if _, err := final.submit(0, recovered[0]+1)(); err != nil {
		return r.fail("post-recovery write failed: %v", err)
	}
	if got, err := final.lane(0); err != nil || !slices.Equal(got, laneReplay(0, recovered[0]+1)) {
		return r.fail("post-recovery write not readable: lane %x err=%v", got, err)
	}
	return nil
}

// replicateArmer is the round's auditor plus a trigger: offset persistence
// events after the target-th commit durable point it arms the crash, so the
// capture lands inside (or just past) that round's replication. Durable
// points come under the engine's writer lock, one at a time.
type replicateArmer struct {
	ptm.Auditor
	sched   *pmem.Scheduler
	policy  pmem.CrashPolicy
	target  int // 1-based
	offset  uint64
	commits int
}

func (ra *replicateArmer) DurablePoint(point string) {
	ra.Auditor.DurablePoint(point)
	if point == "commit" {
		if ra.commits++; ra.commits == ra.target {
			ra.sched.Arm(ra.offset, ra.policy)
		}
	}
}

// nopAuditor stands in for the round's auditor when auditing is off.
type nopAuditor struct{}

func (nopAuditor) TxBegin(string, string) {}
func (nopAuditor) TxEnd()                 {}
func (nopAuditor) DurablePoint(string)    {}
func (nopAuditor) EngineClose(string)     {}

// freshCore builds a core engine whose root 0 points at a committed
// array of size bytes, so every captured image reopens through recovery,
// never format.
func freshCore(ecfg core.Config, size int) (*core.Engine, error) {
	e, err := core.New(crashRegion, ecfg)
	if err != nil {
		return nil, fmt.Errorf("building fresh %s engine: %w", ecfg.Variant, err)
	}
	err = e.Update(func(tx ptm.Tx) error {
		p, err := tx.Alloc(size)
		tx.SetRoot(0, p)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", ecfg.Variant, err)
	}
	return e, nil
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
	if err := checkCore(final); err != nil {
		return nil, r.fail("%v", err)
	}
	return final, nil
}

// commitOrder splits each worker's acked rounds seqs[w] at its recovered
// count and returns the latest round a surviving operation rode and the
// earliest a lost one did. All-or-nothing rounds, durable in commit order,
// mean survivedMax < lostMin: a split round or a hole violates it.
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
