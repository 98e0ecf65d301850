package crashtest

import (
	"fmt"
	"maps"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/shard"
)

// The xshard scenario: randomized crash chains against a sharded store (N
// shard devices plus the coordinator log), with whole-process failures
// captured consistently across every device by one scheduler. The workload is
// single-threaded — the multi-device capture requires it — and mixes
// single-key writes with multi-key batches (roughly 40%) that span shards and
// commit through the coordinator's two-phase record. The recovered store
// must equal the keyspace after some completed operation: exact-prefix
// matching makes a half-applied cross-shard batch, or any lost acknowledged
// write, a failure, since a partial state matches no prefix.
var xshardScenario = &scenario{
	name:     "xshard",
	defaults: Config{Ops: 10, Keys: 48, Shards: 3, ChainDepth: 2},
	subjects: []string{"xshard"},
	metric:   "xshard_crash_",
	// xbatch: cross-shard batches the workloads committed. replay / rollback:
	// in-doubt batches recovery rolled forward / discarded, over all
	// recoveries of the campaign — both arms must be exercised for it to
	// prove anything. rolled_back / carried_forward: rounds whose recovered
	// state excluded/included the round's final completed operation.
	census: []string{"mid_op", "xbatch", "chain", "recovery_crash", "replay", "rollback", "rolled_back", "carried_forward"},
	round:  xshardRound,
}

// shardOpts sizes the sharded store the xshard, rounds and migrate scenarios
// build.
func shardOpts(shards int, v core.Variant) shard.Options {
	return shard.Options{Shards: shards, RegionSize: 256 << 10, CoordSize: 32 << 10, Variant: v}
}

// reopenShards runs the crash chain for a sharded store: each link is
// shard.Reopen — every shard's recovery, the coordinator's in-doubt batch
// resolution, the placement journal's — over the first nsched devices
// scheduled and the rest carried. A crash image is never media damage, so a
// shard that reopens quarantined is a recovery defect and fails the reopen.
func reopenShards(r *round, opts shard.Options, imgs [][]byte, nsched int, pending func(imgs [][]byte) bool) (*shard.Store, error) {
	return reopenChain(r, imgs, nsched,
		func(devs []*pmem.Device, auds []ptm.Auditor) (*shard.Store, error) {
			o := opts
			o.Auditors = auds
			st, err := shard.Reopen(devs, o)
			if err != nil {
				return nil, err
			}
			if q := st.Quarantined(); len(q) > 0 {
				st.Close()
				return nil, fmt.Errorf("shards %v quarantined at reopen", q)
			}
			return st, nil
		}, pending)
}

// xshardPending reports whether an image set needs real recovery work: any
// shard mid-transaction, or a prepared-but-unfinished coordinator record.
func xshardPending(imgs [][]byte) bool {
	for _, img := range imgs[:len(imgs)-1] {
		if core.RecoveryPending(img) {
			return true
		}
	}
	return shard.InspectCoordImage(imgs[len(imgs)-1]).InDoubt
}

// kvHistory is a single-threaded workload's record: states[i] is the keyspace
// after the i-th completed operation, mustSurvive the latest state known
// committed before the crash fired.
type kvHistory struct {
	key         func(int) []byte
	keys        int
	states      []map[int]uint64
	mustSurvive int
}

// next starts the state after one more operation, for the caller to edit.
func (h *kvHistory) next() map[int]uint64 {
	return maps.Clone(h.states[len(h.states)-1])
}

// done records a completed operation's state; captured is whether the crash
// had fired by then.
func (h *kvHistory) done(state map[int]uint64, captured bool) {
	h.states = append(h.states, state)
	if !captured {
		h.mustSurvive = len(h.states) - 1
	}
}

// putOrDelete applies one seeded single-key operation to st and to state.
func (h *kvHistory) putOrDelete(r *round, st *shard.Store, state map[int]uint64) error {
	k := r.rng.Intn(h.keys)
	if r.rng.Intn(4) == 0 {
		delete(state, k)
		return st.Delete(h.key(k))
	}
	v := r.rng.Uint64()
	state[k] = v
	return st.Put(h.key(k), []byte(fmt.Sprintf("%d", v)))
}

// matchRecovered finds the committed prefix the recovered store equals and
// counts the round as rolled back or carried forward.
func (h *kvHistory) matchRecovered(r *round, st *shard.Store) error {
	matched := -1
	for k := len(h.states) - 1; k >= h.mustSurvive && matched < 0; k-- {
		if h.matches(st, h.states[k]) {
			matched = k
		}
	}
	if matched < 0 {
		return r.fail("recovered state matches no committed prefix in [%d,%d]", h.mustSurvive, len(h.states)-1)
	}
	if n := st.Len(); n != len(h.states[matched]) {
		return r.fail("recovered store has %d pairs, matched prefix implies %d (duplicate or orphaned owner)",
			n, len(h.states[matched]))
	}
	if matched < len(h.states)-1 {
		r.rep.add("rolled_back", 1)
	} else {
		r.rep.add("carried_forward", 1)
	}
	return nil
}

func (h *kvHistory) matches(st *shard.Store, want map[int]uint64) bool {
	for k := 0; k < h.keys; k++ {
		wantV, ok := want[k]
		got, err := st.Get(h.key(k))
		if ok != (err == nil) {
			return false
		}
		if ok && string(got) != fmt.Sprintf("%d", wantV) {
			return false
		}
	}
	return true
}

func xshardRound(r *round) error {
	opts := shardOpts(r.cfg.Shards, core.RomLog)
	st, err := shard.Open(opts)
	if err != nil {
		return fmt.Errorf("building fresh sharded store: %w", err)
	}

	devs := st.Devices()
	sched := r.schedule(r.cfg.ChainDepth, devs, len(devs))
	st.SetAuditors(sched.auds)
	policy := randPolicy(r.rng)
	// A single-key tx is ~24 events; a cross-shard batch several times that.
	// Overshooting lets some rounds crash post-workload, quiescent.
	sched.Arm(uint64(1+r.rng.Intn(r.cfg.Ops*64+96)), policy)

	h := &kvHistory{
		key:    func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) },
		keys:   r.cfg.Keys,
		states: []map[int]uint64{{}},
	}
	for i := 0; i < r.cfg.Ops; i++ {
		next := h.next()
		if r.rng.Intn(5) < 2 { // cross-shard batch
			b := &kvstore.Batch{}
			n := 3 + r.rng.Intn(4)
			hit := map[int]bool{}
			for o := 0; o < n; o++ {
				k := r.rng.Intn(h.keys)
				hit[st.ShardFor(h.key(k))] = true
				if r.rng.Intn(4) == 0 {
					b.Delete(h.key(k))
					delete(next, k)
				} else {
					v := r.rng.Uint64()
					b.Put(h.key(k), []byte(fmt.Sprintf("%d", v)))
					next[k] = v
				}
			}
			if err := st.Write(b); err != nil {
				return fmt.Errorf("round %d op %d (batch): %w", r.n, i, err)
			}
			if len(hit) > 1 {
				r.rep.add("xbatch", 1)
			}
		} else if err := h.putOrDelete(r, st, next); err != nil {
			return fmt.Errorf("round %d op %d: %w", r.n, i, err)
		}
		h.done(next, sched.Captured())
	}

	final, err := reopenShards(r, opts, r.capture(sched, policy, "mid_op"), len(devs), xshardPending)
	if err != nil {
		return err
	}
	stats := final.Stats()
	r.rep.add("replay", stats.XReplays)
	r.rep.add("rollback", stats.XRollback)

	if err := h.matchRecovered(r, final); err != nil {
		return err
	}
	// The recovered store must keep working, including cross-shard commits.
	if err := final.Put(h.key(0), []byte("probe")); err != nil {
		return r.fail("recovered store unusable: %v", err)
	}
	pb := &kvstore.Batch{}
	for k := 0; k < h.keys && k < 8; k++ {
		pb.Put(h.key(k), []byte("probe-batch"))
	}
	if err := final.Write(pb); err != nil {
		return r.fail("post-recovery batch failed: %v", err)
	}
	if v, err := final.Get(h.key(1)); err != nil || string(v) != "probe-batch" {
		return r.fail("post-recovery batch not readable: %q err=%v", v, err)
	}
	return nil
}
