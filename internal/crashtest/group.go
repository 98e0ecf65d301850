package crashtest

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/ptm"
	"repro/internal/server"
	"repro/internal/shard"
)

// The group scenario aims simulated power failures at the server layer's
// cross-connection batches (see internal/server/group.go) and checks the
// contract the server publishes in docs/PROTOCOL.md — a reply released by the
// group committer means the write was durable BEFORE the reply existed, so a
// crash at any instant loses no acknowledged write; and a group batch commits
// as one transaction, so a crash inside its durability round never leaves it
// partially visible.
//
// Each simulated connection (worker) owns one key and writes an increasing
// counter into it through the committer (pipelining a small window of
// submissions, like a real pipelined client), recording the batch sequence
// number of every acknowledged op. After the crash chain the recovered value
// of each key reveals exactly which acknowledged ops survived; the recorded
// sequence numbers then assert that durability respects batch commit order
// and no batch was split. The workload is genuinely concurrent, so only the
// one shard device the store is built with is scheduled; the coordinator
// device is carried — group commit never touches it (no cross-shard batches
// here), so its crash image is simply its persisted state.
var groupScenario = &scenario{
	name:     "group",
	defaults: Config{Workers: 6, Ops: 12, ChainDepth: 1},
	subjects: []string{"rom", "romlog", "romlr"},
	salt:     "group-",
	metric:   "group_crash_",
	// batch: group batches started; multiconn_batch: the subset merging ops
	// from more than one connection — the cross-connection sharing the
	// assertion is about. ack_lost counts ops acked AFTER the crash image was
	// captured (their rounds post-date the captured state) — an op acked
	// before the capture that fails to survive fails the round instead.
	// flight_rounds: rounds whose recovered flight recorder held records;
	// flight_inflight: the subset whose report named a batch that had started
	// but not committed at the crash.
	census: []string{"mid_round", "batch", "multiconn_batch", "chain", "recovery_crash",
		"ack_survived", "ack_lost", "flight_rounds", "flight_inflight"},
	round: groupRound,
	// Non-vacuity: a healthy campaign recovers flight data nearly every round
	// (any round with an acked batch has at minimum its start record).
	// All-empty rings mean the blackbox check tested nothing.
	verify: func(rep *Report) error {
		if rep.Rounds >= 25 && rep.Count("flight_rounds") == 0 {
			return fmt.Errorf("crashtest: %s: %d rounds recovered no flight-recorder data — blackbox assertions are vacuous",
				rep.Engine, rep.Rounds)
		}
		return nil
	},
}

// groupMaxBatch bounds one group batch — small, so rounds commit many batches
// and crashes land inside them.
const groupMaxBatch = 8

// groupConn records one simulated connection's acknowledged writes. Op i
// (1-based) stores the decimal value i into the connection's key, so the
// recovered value equals the connection's surviving ack count.
type groupConn struct {
	seqs        []uint64 // seqs[i-1] is the group batch that committed op i
	mustSurvive int      // ops acked strictly before the crash fired
	err         error
}

func groupRound(r *round) error {
	opts := shardOpts(1, coreConfigs[r.subject].Variant)
	// Every round also tortures the flight recorder: batch records are
	// appended through the same crash scheduler as the data they describe,
	// and the recovered report is checked against ground truth below.
	opts.Blackbox = true
	st, err := shard.Open(opts)
	if err != nil {
		return fmt.Errorf("building fresh %s store: %w", r.subject, err)
	}
	traceShards(r, st)

	sched := r.schedule(r.cfg.ChainDepth, st.Devices(), 1)
	st.SetAuditors(sched.auds)
	policy := randPolicy(r.rng)
	sched.Arm(uint64(1+r.rng.Intn(r.workers*r.cfg.Ops*16+64)), policy)

	// The committer under test: small batches and an OnBatch probe recording
	// batch formation for the report.
	var bmu sync.Mutex
	cm := server.NewCommitter(st, server.GroupOptions{
		MaxBatch: groupMaxBatch,
		OnBatch: func(_ int, _ uint64, ops []*server.Pending) {
			conns := map[any]struct{}{}
			for _, p := range ops {
				conns[p.Tag()] = struct{}{}
			}
			bmu.Lock()
			r.rep.add("batch", 1)
			if len(conns) > 1 {
				r.rep.add("multiconn_batch", 1)
			}
			bmu.Unlock()
		},
	})

	connKey := func(w int) []byte { return []byte(fmt.Sprintf("conn%02d", w)) }
	conns := make([]*groupConn, r.workers)
	var wg sync.WaitGroup
	for w := range conns {
		gc := &groupConn{}
		conns[w] = gc
		wrng := r.workerRand(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := connKey(w)
			nOps := 1 + wrng.Intn(r.cfg.Ops)
			window := 1 + wrng.Intn(4) // pipelined submissions in flight
			pending := make([]*server.Pending, 0, window)
			next := 1 // next op index whose ack to consume, 1-based
			consume := func(p *server.Pending) bool {
				reply := p.Wait()
				if reply != "OK" {
					gc.err = fmt.Errorf("conn %d op %d: reply %q", w, next, reply)
					return false
				}
				gc.seqs = append(gc.seqs, p.Seq())
				if !sched.Captured() {
					gc.mustSurvive = next
				}
				next++
				return true
			}
			for i := 1; i <= nOps; i++ {
				val := []byte(strconv.Itoa(i))
				p := cm.Submit(0, uint64(w+1), "set", w, func(tx ptm.Tx, db *kvstore.DB) (string, error) {
					if err := db.PutTx(tx, key, val); err != nil {
						return "", err
					}
					return "OK", nil
				})
				pending = append(pending, p)
				for len(pending) >= window {
					if !consume(pending[0]) {
						return
					}
					pending = pending[1:]
				}
			}
			for _, p := range pending {
				if !consume(p) {
					return
				}
			}
		}()
	}
	wg.Wait()
	cm.Close()
	for _, gc := range conns {
		if gc.err != nil {
			return fmt.Errorf("%s group workload: %w", r.subject, gc.err)
		}
	}

	final, err := reopenShards(r, opts, r.capture(sched, policy, "mid_round"), 1,
		func(imgs [][]byte) bool { return core.RecoveryPending(imgs[0]) })
	if err != nil {
		return err
	}

	// Per-connection recovered counts, then batch atomicity and commit-order
	// durability across connections.
	recovered := make([]int, r.workers)
	seqs := make([][]uint64, r.workers)
	var maxAcked uint64 // latest batch acked before the crash image was captured
	for w, gc := range conns {
		v, err := final.Get(connKey(w))
		switch {
		case errors.Is(err, shard.ErrNotFound):
		case err != nil:
			return r.fail("reading conn %d key: %v", w, err)
		default:
			if recovered[w], err = strconv.Atoi(string(v)); err != nil {
				return r.fail("conn %d key holds %q, not a counter", w, v)
			}
		}
		if n := recovered[w]; n < gc.mustSurvive || n > len(gc.seqs) {
			return r.fail("conn %d: recovered count %d outside acknowledged range [%d,%d] — an acked write was lost",
				w, n, gc.mustSurvive, len(gc.seqs))
		}
		r.rep.add("ack_survived", uint64(recovered[w]))
		r.rep.add("ack_lost", uint64(len(gc.seqs)-recovered[w]))
		seqs[w] = gc.seqs
		for _, seq := range gc.seqs[:gc.mustSurvive] {
			maxAcked = max(maxAcked, seq)
		}
	}
	survivedMax, lostMin := commitOrder(seqs, recovered)
	if survivedMax >= lostMin {
		return r.fail("group batch atomicity violated: batch %d (or earlier) lost while batch %d survived",
			lostMin, survivedMax)
	}

	// Flight-recorder forensics. The recovered ring's claims are checked
	// against ground truth from the workload:
	//
	//  1. Every batch's BatchStart record is fenced BEFORE its transaction,
	//     so a batch acked before the crash image was captured must appear
	//     started (ring wrap only retains newer, higher seqs, so the max
	//     can only grow).
	//  2. A durable BatchCommit record means the batch's psync completed
	//     before the record was even appended — so a commit record for a
	//     batch whose acked data was LOST is a lie on the media.
	fr := final.FlightReports()[0]
	if fr == nil {
		return r.fail("blackbox store reopened without a flight report")
	}
	if maxAcked > 0 {
		if fr.Empty() {
			return r.fail("flight recorder empty though batch %d was acked before the crash", maxAcked)
		}
		if fr.MaxBatchStarted < maxAcked {
			return r.fail("flight recorder names batch %d as last started, but batch %d was acked before the crash",
				fr.MaxBatchStarted, maxAcked)
		}
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

	// The recovered store must keep serving the group-commit path.
	want := strconv.Itoa(r.n)
	cm2 := server.NewCommitter(final, server.GroupOptions{MaxBatch: groupMaxBatch})
	reply := cm2.Submit(0, 1, "probe", nil, func(tx ptm.Tx, db *kvstore.DB) (string, error) {
		if err := db.PutTx(tx, []byte("probe"), []byte(want)); err != nil {
			return "", err
		}
		return "OK", nil
	}).Wait()
	cm2.Close()
	if reply != "OK" {
		return r.fail("post-recovery group commit failed: %q", reply)
	}
	if v, err := final.Get([]byte("probe")); err != nil || string(v) != want {
		return r.fail("post-recovery group write not readable: %q err=%v", v, err)
	}
	return nil
}
