package crashtest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/migrate"
	"repro/internal/ptm"
	"repro/internal/shard"
)

// The migrate scenario: randomized crash chains against a sharded store WHILE
// an online shard split is in flight. Every round interleaves a
// single-threaded workload with the migration driver's bounded durable steps,
// crashes the whole process (all shard devices plus the coordinator log,
// captured consistently), and requires recovery to land on an exact committed
// prefix of the workload with exactly one owner per key — the placement
// journal's two arms (roll the copy back, roll the cutover forward) both get
// exercised or the campaign proves nothing.
var migrateScenario = &scenario{
	name:     "migrate",
	defaults: Config{Ops: 16, Keys: 48, Shards: 2, ChainDepth: 2},
	subjects: []string{"migrate"},
	metric:   "migrate_crash_",
	// copy / cleanup: captured images whose placement journal was open in the
	// copy phase (recovery must roll the partial copy BACK) / past the cutover
	// (recovery must roll the move FORWARD); both must be nonzero for the
	// campaign to exercise both arms. complete: captures whose journal was
	// already closed (before Begin or after cleanup finished).
	census: []string{"mid_op", "copy", "cleanup", "complete", "chain", "recovery_crash", "rolled_back", "carried_forward"},
	round:  migrateRound,
}

// migrateBatchKeys bounds keys per migration batch — small batches put more
// durable phase transitions inside the crash window.
const migrateBatchKeys = 4

// migratePending reports whether an image set needs real recovery work:
// any shard mid-transaction, an in-doubt coordinator record, or an open
// placement journal (a split to resolve one way or the other).
func migratePending(imgs [][]byte) bool {
	return xshardPending(imgs) || shard.InspectCoordImage(imgs[len(imgs)-1]).PlacementJournalPhase() != migrate.PhaseNone
}

func migrateRound(r *round) error {
	opts := shardOpts(r.cfg.Shards, core.RomLog)
	st, err := shard.Open(opts)
	if err != nil {
		return fmt.Errorf("building fresh sharded store: %w", err)
	}
	h := &kvHistory{
		key:  func(i int) []byte { return []byte(fmt.Sprintf("m%03d", i)) },
		keys: r.cfg.Keys,
	}

	// Preload ~half the keyspace so the split has something to move, then
	// provision the destination shard BEFORE arming the capture — its device
	// must be inside the consistent multi-device snapshot.
	preload := map[int]uint64{}
	for k := 0; k < h.keys; k += 2 {
		v := r.rng.Uint64()
		if err := st.Put(h.key(k), []byte(fmt.Sprintf("%d", v))); err != nil {
			return fmt.Errorf("round %d preload: %w", r.n, err)
		}
		preload[k] = v
	}
	h.states = []map[int]uint64{preload}
	src := r.rng.Intn(r.cfg.Shards)
	dst, err := st.AddShard()
	if err != nil {
		return fmt.Errorf("round %d provisioning shard: %w", r.n, err)
	}

	devs := st.Devices()
	sched := r.schedule(r.cfg.ChainDepth, devs, len(devs))
	st.SetAuditors(sched.auds)
	policy := randPolicy(r.rng)
	// A migration step is a durable batch (tens of events); with the default
	// geometry a full round runs ~750–1150 events, reaching the cutover near
	// a third of the way in. The random budget spans slightly past one full
	// round so first crashes spread across copy, cutover, cleanup, and (on
	// overshooting rounds) post-migration quiescence.
	sched.Arm(uint64(1+r.rng.Intn(r.cfg.Ops*32+h.keys*14)), policy)

	drv := migrate.New(st, migrate.Options{BatchKeys: migrateBatchKeys})
	if _, err := drv.Begin(src, dst); err != nil {
		return fmt.Errorf("round %d migration begin: %w", r.n, err)
	}

	// Interleave: one workload op, one migration step, until both budgets
	// run out.
	migDone := false
	for i := 0; i < r.cfg.Ops || !migDone; i++ {
		if i < r.cfg.Ops {
			next := h.next()
			if err := h.putOrDelete(r, st, next); err != nil {
				return fmt.Errorf("round %d op %d: %w", r.n, i, err)
			}
			h.done(next, sched.Captured())
		}
		if !migDone {
			if migDone, err = drv.Step(); err != nil {
				return fmt.Errorf("round %d migration step: %w", r.n, err)
			}
		}
	}

	imgs := r.capture(sched, policy, "mid_op")
	switch shard.InspectCoordImage(imgs[len(imgs)-1]).PlacementJournalPhase() {
	case migrate.PhaseCopy:
		r.rep.add("copy", 1)
	case migrate.PhaseCleanup:
		r.rep.add("cleanup", 1)
	default:
		r.rep.add("complete", 1)
	}
	final, err := reopenShards(r, opts, imgs, len(imgs), migratePending)
	if err != nil {
		return err
	}

	// Recovery must have resolved the journal (no migration may be left
	// open), landed on an exact committed prefix, and left every key with
	// exactly one owner.
	if final.Placement().Migration != nil {
		return r.fail("recovered store still has an open migration journal")
	}
	if err := h.matchRecovered(r, final); err != nil {
		return err
	}
	if reason := migrateOwnership(final); reason != "" {
		return r.fail("%s", reason)
	}

	// The recovered store must keep working — including a full re-split,
	// whichever way the crashed one resolved.
	if err := final.Put(h.key(0), []byte("probe")); err != nil {
		return r.fail("recovered store unusable: %v", err)
	}
	resrc := 0
	for sh := 0; sh < final.NumShards(); sh++ {
		if len(final.OwnedSlots(sh)) > len(final.OwnedSlots(resrc)) {
			resrc = sh
		}
	}
	if _, err := migrate.New(final, migrate.Options{BatchKeys: migrateBatchKeys}).Split(resrc); err != nil {
		return r.fail("post-recovery split failed: %v", err)
	}
	if reason := migrateOwnership(final); reason != "" {
		return r.fail("after post-recovery split: %s", reason)
	}
	// The re-split provisioned a shard device the crash chain never saw.
	r.finalDevs = final.Devices()
	return nil
}

// migrateOwnership scans every shard asserting each stored key lives on
// exactly the shard the placement routes it to — the single-owner
// invariant the migration journal exists to preserve. Returns "" when it
// holds, a failure reason otherwise.
func migrateOwnership(st *shard.Store) string {
	owners := map[string]int{}
	for sh := 0; sh < st.NumShards(); sh++ {
		var keys []string
		err := st.View(sh, func(tx ptm.Tx, db *kvstore.DB) error {
			keys = keys[:0] // engine reads may retry fn
			return db.RangeTx(tx, false, func(k, v []byte) bool {
				keys = append(keys, string(k))
				return true
			})
		})
		if err != nil {
			return fmt.Sprintf("ownership scan of shard %d: %v", sh, err)
		}
		for _, k := range keys {
			if prev, dup := owners[k]; dup {
				return fmt.Sprintf("key %q is owned by shards %d and %d", k, prev, sh)
			}
			owners[k] = sh
			if want := st.ShardFor([]byte(k)); want != sh {
				return fmt.Sprintf("key %q stored on shard %d but routes to %d", k, sh, want)
			}
		}
	}
	return ""
}
