// Mid-migration crash campaign: randomized crash chains against a sharded
// store WHILE an online shard split is in flight. Every round interleaves a
// single-threaded workload with the migration driver's bounded durable
// steps, crashes the whole process (all shard devices plus the coordinator
// log, captured consistently), and requires recovery to land on an exact
// committed prefix of the workload with exactly one owner per key — the
// placement journal's two arms (roll the copy back, roll the cutover
// forward) both get exercised or the campaign proves nothing.
package crashtest

import (
	"fmt"
	"math/rand"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/migrate"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/shard"
)

// MigrateConfig parameterizes the mid-migration campaign.
type MigrateConfig struct {
	// Rounds is the number of build/split/crash/recover cycles.
	Rounds int
	// Seed makes campaigns fully deterministic (single-threaded workload).
	Seed int64
	// Shards is the partition count BEFORE the split (default 2).
	Shards int
	// Keys bounds the keyspace (default 48).
	Keys int
	// OpsPerRound bounds completed workload operations interleaved with
	// migration steps before the crash (default 16).
	OpsPerRound int
	// BatchKeys bounds keys per migration batch (default 4 — small batches
	// put more durable phase transitions inside the crash window).
	BatchKeys int
	// ChainDepth is the maximum crashes per round (default 2): the first
	// lands in the workload or a migration step, later ones inside the
	// multi-device recovery itself.
	ChainDepth int
	// Metrics, when non-nil, accumulates pmem_* device totals and the
	// migrate_crash_* campaign counters.
	Metrics *obs.Registry
	// Audit chains a durability auditor on EVERY device for the workload
	// and every reopened image set. Violations fail the round.
	Audit bool
}

func (cfg *MigrateConfig) applyDefaults() {
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Keys == 0 {
		cfg.Keys = 48
	}
	if cfg.OpsPerRound == 0 {
		cfg.OpsPerRound = 16
	}
	if cfg.BatchKeys == 0 {
		cfg.BatchKeys = 4
	}
	if cfg.ChainDepth == 0 {
		cfg.ChainDepth = 2
	}
}

// MigrateReport summarizes a mid-migration crash campaign.
type MigrateReport struct {
	Rounds int `json:"rounds"`
	Shards int `json:"shards"`
	// MidOpCrashes counts rounds whose first crash interrupted live work
	// (the rest crashed at a quiescent point, post-workload).
	MidOpCrashes int `json:"mid_op_crashes"`
	// CopyCrashes / CleanupCrashes count captured images whose placement
	// journal was open in the copy phase (recovery must roll the partial
	// copy BACK) / past the cutover (recovery must roll the move FORWARD).
	// Both must be nonzero for the campaign to exercise both arms.
	CopyCrashes    int `json:"copy_crashes"`
	CleanupCrashes int `json:"cleanup_crashes"`
	// CompleteCrashes counts captures whose journal was already closed
	// (before Begin or after cleanup finished).
	CompleteCrashes int `json:"complete_crashes"`
	// ChainCrashes counts crashes beyond the first (inside recovery);
	// RecoveryCrashes counts those whose image set had recovery work
	// pending (a shard mid-transaction, an in-doubt coordinator record, or
	// an open placement journal).
	ChainCrashes    int `json:"chain_crashes"`
	RecoveryCrashes int `json:"recovery_crashes"`
	// RolledBack and CarriedForward count rounds whose recovered state
	// excluded/included the round's final completed operation.
	RolledBack      int    `json:"rolled_back"`
	CarriedForward  int    `json:"carried_forward"`
	AuditViolations uint64 `json:"audit_violations,omitempty"`
}

// RunMigrate executes the mid-migration campaign, returning the report and
// the first Failure (Engine "migrate") found.
func RunMigrate(cfg MigrateConfig) (MigrateReport, error) {
	cfg.applyDefaults()
	rep := MigrateReport{Shards: cfg.Shards}
	rng := rand.New(rand.NewSource(engineSeed(cfg.Seed, "migrate")))
	for round := 0; round < cfg.Rounds; round++ {
		roundSeed := rng.Int63()
		if err := runMigrateRound(cfg, round, roundSeed, &rep); err != nil {
			if f, ok := err.(*Failure); ok {
				f.Engine = "migrate"
				f.Round = round
				f.CampaignSeed = cfg.Seed
				f.RoundSeed = roundSeed
				f.Threads = 1
			}
			return rep, err
		}
		rep.Rounds++
	}
	if r := cfg.Metrics; r != nil {
		r.Counter("migrate_crash_rounds_total").Add(uint64(rep.Rounds))
		r.Counter("migrate_crash_copy_total").Add(uint64(rep.CopyCrashes))
		r.Counter("migrate_crash_cleanup_total").Add(uint64(rep.CleanupCrashes))
		r.Counter("migrate_crash_chain_total").Add(uint64(rep.ChainCrashes))
		r.Counter("migrate_crash_recovery_crash_total").Add(uint64(rep.RecoveryCrashes))
	}
	return rep, nil
}

func migrateOpts(cfg MigrateConfig) shard.Options {
	return shard.Options{
		Shards:     cfg.Shards,
		RegionSize: 256 << 10,
		CoordSize:  32 << 10,
		Variant:    core.RomLog,
	}
}

// migratePending reports whether an image set needs real recovery work:
// any shard mid-transaction, an in-doubt coordinator record, or an open
// placement journal (a split to resolve one way or the other).
func migratePending(imgs [][]byte) bool {
	coord := imgs[len(imgs)-1]
	return xshardPending(imgs) || shard.PlacementRecoveryPending(coord)
}

func runMigrateRound(cfg MigrateConfig, round int, roundSeed int64, rep *MigrateReport) error {
	rrng := rand.New(rand.NewSource(roundSeed))
	st, err := shard.Open(migrateOpts(cfg))
	if err != nil {
		return fmt.Errorf("building fresh sharded store: %w", err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("m%03d", i)) }

	// Preload ~half the keyspace so the split has something to move, then
	// provision the destination shard BEFORE arming the capture — its device
	// must be inside the consistent multi-device snapshot.
	state := map[int]uint64{}
	for k := 0; k < cfg.Keys; k += 2 {
		v := rrng.Uint64()
		if err := st.Put(key(k), []byte(fmt.Sprintf("%d", v))); err != nil {
			return fmt.Errorf("round %d preload: %w", round, err)
		}
		state[k] = v
	}
	src := rrng.Intn(cfg.Shards)
	dst, err := st.AddShard()
	if err != nil {
		return fmt.Errorf("round %d provisioning shard: %w", round, err)
	}

	var roundAuds []*audit.Auditor
	devs := st.Devices()
	ms := pmem.NewMultiScheduler(devs...)
	ms.SetBudget(cfg.ChainDepth)
	pauds, auds := xshardAttach(devs, ms, cfg.Audit)
	if pauds != nil {
		st.SetAuditors(pauds)
		roundAuds = append(roundAuds, auds...)
	}
	policy := randPolicy(rrng)
	// A migration step is a durable batch (tens of events); with the default
	// geometry a full round runs ~750–1150 events, reaching the cutover near
	// a third of the way in. The random budget spans slightly past one full
	// round so first crashes spread across copy, cutover, cleanup, and (on
	// overshooting rounds) post-migration quiescence.
	ms.Arm(uint64(1+rrng.Intn(cfg.OpsPerRound*32+cfg.Keys*14)), policy)

	drv := migrate.New(st, migrate.Options{BatchKeys: cfg.BatchKeys})
	if _, err := drv.Begin(src, dst); err != nil {
		return fmt.Errorf("round %d migration begin: %w", round, err)
	}

	// Interleave: one workload op, one migration step, until both budgets
	// run out. states[i] is the keyspace after the i-th completed op;
	// mustSurvive is the latest state known committed before the crash.
	states := []map[int]uint64{cloneState(state)}
	mustSurvive := 0
	migDone := false
	for i := 0; i < cfg.OpsPerRound || !migDone; i++ {
		if i < cfg.OpsPerRound {
			next := cloneState(state)
			k := rrng.Intn(cfg.Keys)
			if rrng.Intn(4) == 0 {
				if err := st.Delete(key(k)); err != nil {
					return fmt.Errorf("round %d op %d (del): %w", round, i, err)
				}
				delete(next, k)
			} else {
				v := rrng.Uint64()
				if err := st.Put(key(k), []byte(fmt.Sprintf("%d", v))); err != nil {
					return fmt.Errorf("round %d op %d (put): %w", round, i, err)
				}
				next[k] = v
			}
			state = next
			states = append(states, next)
			if !ms.Captured() {
				mustSurvive = i + 1
			}
		}
		if !migDone {
			done, err := drv.Step()
			if err != nil {
				return fmt.Errorf("round %d migration step: %w", round, err)
			}
			migDone = done
		}
	}

	imgs, ev := ms.Images()
	if imgs != nil {
		rep.MidOpCrashes++
	} else {
		imgs = ms.CaptureNow(policy)
		ev = ms.Events()
	}
	ms.Detach()
	for _, d := range devs {
		accumDevice(cfg.Metrics, d)
	}
	switch shard.InspectCoordImage(imgs[len(imgs)-1]).PlacementJournalPhase() {
	case migrate.PhaseCopy:
		rep.CopyCrashes++
	case migrate.PhaseCleanup:
		rep.CleanupCrashes++
	default:
		rep.CompleteCrashes++
	}
	chain := []CrashPoint{{Event: ev}}

	// Crash chain: reopen each image set under a freshly armed
	// multi-scheduler; a crash during Reopen (shard recoveries, in-doubt
	// coordinator resolution, AND the placement journal's rollback or
	// roll-forward) yields the next link.
	var final *shard.Store
	for {
		rdevs := make([]*pmem.Device, len(imgs))
		for i, img := range imgs {
			rdevs[i] = pmem.FromImage(img, pmem.ModelDRAM)
		}
		pending := migratePending(imgs)
		ms2 := pmem.NewMultiScheduler(rdevs...)
		ms2.SetBudget(1)
		if len(chain) < cfg.ChainDepth {
			armInsideReopen(rrng, imgs, func(d []*pmem.Device) {
				_, _ = shard.Reopen(d, migrateOpts(cfg)) // rehearsal; the Reopen below reports errors
			}, ms2.Arm)
		}
		ropts := migrateOpts(cfg)
		pauds2, auds2 := xshardAttach(rdevs, ms2, cfg.Audit)
		ropts.Auditors = pauds2
		roundAuds = append(roundAuds, auds2...)
		st2, err := shard.Reopen(rdevs, ropts)
		if ms2.Captured() {
			imgs2, ev2 := ms2.Images()
			ms2.Detach()
			for _, d := range rdevs {
				accumDevice(cfg.Metrics, d)
			}
			rep.ChainCrashes++
			if pending {
				rep.RecoveryCrashes++
			}
			chain = append(chain, CrashPoint{Event: ev2, DuringOpen: true, RecoveryPending: pending})
			imgs = imgs2
			continue
		}
		ms2.Detach()
		if err != nil {
			return &Failure{Chain: chain, Reason: fmt.Sprintf("reopen failed: %v", err)}
		}
		for _, a := range auds2 {
			a.Attach()
		}
		final = st2
		break
	}

	// Validate: recovery must have resolved the journal (no migration may
	// be left open), landed on an exact committed prefix, and left every
	// key with exactly one owner.
	if final.Placement().Migration != nil {
		return &Failure{Chain: chain, Reason: "recovered store still has an open migration journal"}
	}
	matched := -1
	for k := len(states) - 1; k >= mustSurvive; k-- {
		if xshardStateMatches(final, states[k], cfg.Keys, key) {
			matched = k
			break
		}
	}
	if matched < 0 {
		return &Failure{Chain: chain, Reason: fmt.Sprintf(
			"recovered state matches no committed prefix in [%d,%d]", mustSurvive, len(states)-1)}
	}
	if n := final.Len(); n != len(states[matched]) {
		return &Failure{Chain: chain, Reason: fmt.Sprintf(
			"recovered store has %d pairs, matched prefix implies %d (duplicate or orphaned owner)",
			n, len(states[matched]))}
	}
	if reason := migrateOwnership(final); reason != "" {
		return &Failure{Chain: chain, Reason: reason}
	}
	if matched < len(states)-1 {
		rep.RolledBack++
	} else {
		rep.CarriedForward++
	}

	// The recovered store must keep working — including a full re-split,
	// whichever way the crashed one resolved.
	if err := final.Put(key(0), []byte("probe")); err != nil {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("recovered store unusable: %v", err)}
	}
	drv2 := migrate.New(final, migrate.Options{BatchKeys: cfg.BatchKeys})
	resrc := 0
	for sh := 0; sh < final.NumShards(); sh++ {
		if len(final.OwnedSlots(sh)) > len(final.OwnedSlots(resrc)) {
			resrc = sh
		}
	}
	if _, err := drv2.Split(resrc); err != nil {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("post-recovery split failed: %v", err)}
	}
	if reason := migrateOwnership(final); reason != "" {
		return &Failure{Chain: chain, Reason: "after post-recovery split: " + reason}
	}

	// Audit rounds: close is the final durability claim, then any violation
	// across the round's auditors fails it.
	if cfg.Audit {
		if err := final.Close(); err != nil {
			return &Failure{Chain: chain, Reason: fmt.Sprintf("close after recovery: %v", err)}
		}
		for _, d := range final.Devices() {
			accumDevice(cfg.Metrics, d)
		}
		var total uint64
		var first *audit.Violation
		for _, a := range roundAuds {
			total += a.ViolationCount()
			if first == nil {
				if vs := a.Violations(); len(vs) > 0 {
					first = &vs[0]
				}
			}
		}
		if total > 0 {
			rep.AuditViolations += total
			reason := fmt.Sprintf("auditor: %d durability violation(s)", total)
			if first != nil {
				reason += fmt.Sprintf("; first: [%s] at %s: line %d off %d state=%s seq=%d engine=%s tx=%s site=%s",
					first.Kind, first.Point, first.Line, first.Off, first.State, first.Seq,
					first.Engine, first.TxKind, first.Site)
			}
			return &Failure{Chain: chain, Reason: reason}
		}
	}
	return nil
}

func cloneState(m map[int]uint64) map[int]uint64 {
	out := make(map[int]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// migrateOwnership scans every shard asserting each stored key lives on
// exactly the shard the placement routes it to — the single-owner
// invariant the migration journal exists to preserve. Returns "" when it
// holds, a failure reason otherwise.
func migrateOwnership(st *shard.Store) string {
	type loc struct{ shard, count int }
	seen := map[string]loc{}
	var pairs []struct {
		key string
		sh  int
	}
	for sh := 0; sh < st.NumShards(); sh++ {
		var keys []string
		err := st.View(sh, func(tx ptm.Tx, db *kvstore.DB) error {
			keys = keys[:0] // engine reads may retry fn
			db.RangeTx(tx, false, func(k, v []byte) bool {
				keys = append(keys, string(k))
				return true
			})
			return nil
		})
		if err != nil {
			return fmt.Sprintf("ownership scan of shard %d: %v", sh, err)
		}
		for _, k := range keys {
			l := seen[k]
			l.count++
			l.shard = sh
			seen[k] = l
			pairs = append(pairs, struct {
				key string
				sh  int
			}{k, sh})
		}
	}
	for k, l := range seen {
		if l.count > 1 {
			return fmt.Sprintf("key %q has %d owners", k, l.count)
		}
	}
	for _, p := range pairs {
		if want := st.ShardFor([]byte(p.key)); want != p.sh {
			return fmt.Sprintf("key %q stored on shard %d but routes to %d", p.key, p.sh, want)
		}
	}
	return ""
}
