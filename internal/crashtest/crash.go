package crashtest

import (
	"fmt"
	"maps"
	"sync"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// The crash scenario: every engine in the repository — the three Romulus
// variants, the undo-log and redo-log baselines, and the RomulusDB key-value
// store — under a concurrent multi-goroutine workload over a persistent map.
// The crash lands at a random persistence event under a random adversary
// policy; the recovered state is validated against per-worker transaction
// histories: each worker's keys must reflect exactly a durable prefix of that
// worker's committed transactions.
var crashScenario = &scenario{
	name:     "crash",
	defaults: Config{Workers: 2, Ops: 12, Keys: 64, ChainDepth: 1},
	subjects: targetNames(),
	metric:   "crash_",
	// mid_tx: rounds whose first crash interrupted the workload (the rest
	// crashed post-commit, at a quiescent point). rolled_back and
	// carried_forward: workers whose recovered prefix excluded/included their
	// final committed transaction.
	census: []string{"mid_tx", "chain", "recovery_crash", "rolled_back", "carried_forward"},
	workers: func(cfg Config, subject string) int {
		if !targetNamed(subject).concurrent {
			return 1
		}
		return min(cfg.Workers, cfg.Keys)
	},
	round: crashRound,
}

// workerHistory tracks one worker's committed transactions: states[i] is the
// worker's key space after its i-th transaction, and mustSurvive is the
// shortest prefix recovery is allowed to expose (transactions known to have
// committed strictly before the crash fired).
type workerHistory struct {
	keys        []uint64
	states      []map[uint64]uint64
	mustSurvive int
	err         error
}

func crashRound(r *round) error {
	tgt := targetNamed(r.subject)
	st, err := tgt.fresh()
	if err != nil {
		return fmt.Errorf("building fresh %s store: %w", tgt.name, err)
	}

	// The scheduler attaches after the store exists, so the map root is
	// always durable and every captured image reopens through the recovery
	// path, never through format.
	sched := r.schedule(r.cfg.ChainDepth, []*pmem.Device{st.dev()}, 1)
	st.setAudit(sched.auds[0])
	policy := randPolicy(r.rng)
	// ~24 persistence events per small transaction; the range deliberately
	// overshoots so some rounds crash post-workload, at a quiescent point.
	sched.Arm(uint64(1+r.rng.Intn(r.workers*r.cfg.Ops*24+32)), policy)

	workers := make([]*workerHistory, r.workers)
	var wg sync.WaitGroup
	for w := range workers {
		h := &workerHistory{states: []map[uint64]uint64{{}}}
		for k := uint64(w); k < uint64(r.cfg.Keys); k += uint64(r.workers) {
			h.keys = append(h.keys, k)
		}
		workers[w] = h
		wrng := r.workerRand(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			nTx := 1 + wrng.Intn(r.cfg.Ops)
			for i := 0; i < nTx; i++ {
				ops := make([]op, 1+wrng.Intn(4))
				for o := range ops {
					ops[o] = op{
						del: wrng.Intn(4) == 0,
						k:   h.keys[wrng.Intn(len(h.keys))],
						v:   wrng.Uint64(),
					}
				}
				if err := st.update(ops); err != nil {
					h.err = fmt.Errorf("worker %d tx %d: %w", w, i, err)
					return
				}
				next := maps.Clone(h.states[i])
				apply(next, ops)
				h.states = append(h.states, next)
				// Conservative: if the crash has not fired yet, this durable
				// transaction must survive. (If it fires between the commit
				// and this check we merely under-claim, which is safe.)
				if !sched.Captured() {
					h.mustSurvive = i + 1
				}
			}
		}()
	}
	wg.Wait()
	for _, h := range workers {
		if h.err != nil {
			return fmt.Errorf("%s workload: %w", tgt.name, h.err)
		}
	}

	final, err := reopenChain(r, r.capture(sched, policy, "mid_tx"), 1,
		func(devs []*pmem.Device, auds []ptm.Auditor) (store, error) { return tgt.reopen(devs[0], auds[0]) },
		func(imgs [][]byte) bool { return tgt.pending(imgs[0]) })
	if err != nil {
		return err
	}

	if err := final.check(); err != nil {
		return r.fail("%v", err)
	}
	total := 0
	for w, h := range workers {
		k, ok := matchPrefix(final, h)
		if !ok {
			return r.fail("worker %d: recovered keys match no committed prefix in [%d,%d]",
				w, h.mustSurvive, len(h.states)-1)
		}
		total += len(h.states[k])
		if k < len(h.states)-1 {
			r.rep.add("rolled_back", 1)
		} else {
			r.rep.add("carried_forward", 1)
		}
	}
	if n, err := final.size(); err != nil {
		return r.fail("size after recovery: %v", err)
	} else if n != total {
		return r.fail("recovered store has %d pairs, matched prefixes imply %d", n, total)
	}
	// The recovered store must keep working.
	probe := uint64(r.n)
	if err := final.update([]op{{k: 0, v: probe}}); err != nil {
		return r.fail("recovered store unusable: %v", err)
	}
	if v, found, err := final.get(0); err != nil || !found || v != probe {
		return r.fail("post-recovery write not readable: v=%d found=%v err=%v", v, found, err)
	}
	return nil
}

// apply folds a committed transaction into a model of the map.
func apply(model map[uint64]uint64, ops []op) {
	for _, o := range ops {
		if o.del {
			delete(model, o.k)
		} else {
			model[o.k] = o.v
		}
	}
}

// matchPrefix finds a committed prefix of the worker's history that the
// recovered store agrees with on every key the worker owns, searching from
// the most recent transaction down to the oldest the crash allows.
func matchPrefix(final store, h *workerHistory) (int, bool) {
	for k := len(h.states) - 1; k >= h.mustSurvive; k-- {
		if prefixMatches(final, h, h.states[k]) {
			return k, true
		}
	}
	return 0, false
}

func prefixMatches(final store, h *workerHistory, state map[uint64]uint64) bool {
	for _, key := range h.keys {
		want, ok := state[key]
		got, found, err := final.get(key)
		if err != nil || found != ok || (ok && got != want) {
			return false
		}
	}
	return true
}
