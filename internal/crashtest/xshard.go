package crashtest

import (
	"fmt"
	"math/rand"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/shard"
)

// XShardConfig parameterizes the cross-shard campaign: randomized crash
// chains against a sharded store (N shard devices plus the coordinator log),
// with whole-process failures captured consistently across every device by
// pmem.MultiScheduler. The workload is single-threaded — the multi-device
// capture requires it — and mixes single-key writes with multi-key batches
// that span shards and commit through the coordinator's two-phase record.
type XShardConfig struct {
	// Rounds is the number of build/crash/recover cycles.
	Rounds int
	// Seed makes campaigns fully deterministic (single-threaded workload).
	Seed int64
	// Shards is the partition count (default 3).
	Shards int
	// Keys bounds the keyspace (default 48).
	Keys int
	// OpsPerRound bounds completed operations before the crash (default 10);
	// roughly 40% are cross-shard batches.
	OpsPerRound int
	// ChainDepth is the maximum crashes per round (default 2): the first
	// lands in the workload or a two-phase commit window, later ones inside
	// the multi-device recovery itself.
	ChainDepth int
	// Metrics, when non-nil, accumulates pmem_* device totals and the
	// xshard_crash_* campaign counters.
	Metrics *obs.Registry
	// Audit chains a durability auditor in front of the crash scheduler on
	// EVERY device — each shard and the coordinator log — for the workload
	// and every reopened image set. Violations fail the round.
	Audit bool
}

func (cfg *XShardConfig) applyDefaults() {
	if cfg.Shards == 0 {
		cfg.Shards = 3
	}
	if cfg.Keys == 0 {
		cfg.Keys = 48
	}
	if cfg.OpsPerRound == 0 {
		cfg.OpsPerRound = 10
	}
	if cfg.ChainDepth == 0 {
		cfg.ChainDepth = 2
	}
}

// XShardReport summarizes a cross-shard campaign.
type XShardReport struct {
	Rounds int `json:"rounds"`
	Shards int `json:"shards"`
	// MidOpCrashes counts rounds whose first crash interrupted the workload
	// (the rest crashed post-commit, at a quiescent point).
	MidOpCrashes int `json:"mid_op_crashes"`
	// XBatches counts cross-shard batches committed by the workloads.
	XBatches int `json:"xshard_batches"`
	// Replays and Rollbacks count in-doubt batches recovery rolled forward /
	// discarded across all recoveries of the campaign — both arms must be
	// exercised for the campaign to prove anything.
	Replays   uint64 `json:"replays"`
	Rollbacks uint64 `json:"rollbacks"`
	// ChainCrashes counts crashes beyond the first (inside recovery);
	// RecoveryCrashes counts those whose image set had real recovery work
	// pending (a shard mid-transaction or a prepared coordinator record).
	ChainCrashes    int `json:"chain_crashes"`
	RecoveryCrashes int `json:"recovery_crashes"`
	// RolledBack and CarriedForward count rounds whose recovered state
	// excluded/included the round's final completed operation.
	RolledBack      int    `json:"rolled_back"`
	CarriedForward  int    `json:"carried_forward"`
	AuditViolations uint64 `json:"audit_violations,omitempty"`
}

// RunXShard executes the cross-shard campaign, returning the report and the
// first Failure (Engine "xshard") found.
func RunXShard(cfg XShardConfig) (XShardReport, error) {
	cfg.applyDefaults()
	rep := XShardReport{Shards: cfg.Shards}
	rng := rand.New(rand.NewSource(engineSeed(cfg.Seed, "xshard")))
	for round := 0; round < cfg.Rounds; round++ {
		roundSeed := rng.Int63()
		if err := runXShardRound(cfg, round, roundSeed, &rep); err != nil {
			if f, ok := err.(*Failure); ok {
				f.Engine = "xshard"
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
		r.Counter("xshard_crash_rounds_total").Add(uint64(rep.Rounds))
		r.Counter("xshard_crash_chain_total").Add(uint64(rep.ChainCrashes))
		r.Counter("xshard_crash_recovery_crash_total").Add(uint64(rep.RecoveryCrashes))
		r.Counter("xshard_crash_replay_total").Add(rep.Replays)
		r.Counter("xshard_crash_rollback_total").Add(rep.Rollbacks)
	}
	return rep, nil
}

// xshardOpts builds the store options for one round; Auditors is filled per
// open by the caller.
func xshardOpts(cfg XShardConfig) shard.Options {
	return shard.Options{
		Shards:     cfg.Shards,
		RegionSize: 256 << 10,
		CoordSize:  32 << 10,
		Variant:    core.RomLog,
	}
}

// xshardAttach wires one image set's devices: per device, optionally an
// auditor chained IN FRONT of the multi-scheduler's counting bundle (shadow
// state must update before a capture can fire). Returns the ptm.Auditor
// slice for shard.Options.Auditors (nil when auditing is off) and the
// round's new auditors for accounting.
func xshardAttach(devs []*pmem.Device, ms *pmem.MultiScheduler, enabled bool) ([]ptm.Auditor, []*audit.Auditor) {
	if !enabled {
		ms.Attach()
		return nil, nil
	}
	pauds := make([]ptm.Auditor, len(devs))
	auds := make([]*audit.Auditor, len(devs))
	for i, d := range devs {
		a := audit.New(d, audit.Options{})
		d.SetHooks(pmem.ChainHooks(a.Hooks(), ms.Hooks(i)))
		pauds[i] = a
		auds[i] = a
	}
	return pauds, auds
}

// xshardPending reports whether an image set needs real recovery work: any
// shard mid-transaction, or a prepared-but-unfinished coordinator record.
func xshardPending(imgs [][]byte) bool {
	for _, img := range imgs[:len(imgs)-1] {
		if core.RecoveryPending(img) {
			return true
		}
	}
	return shard.CoordRecoveryPending(imgs[len(imgs)-1])
}

func runXShardRound(cfg XShardConfig, round int, roundSeed int64, rep *XShardReport) error {
	rrng := rand.New(rand.NewSource(roundSeed))
	opts := xshardOpts(cfg)
	st, err := shard.Open(opts)
	if err != nil {
		return fmt.Errorf("building fresh sharded store: %w", err)
	}
	var roundAuds []*audit.Auditor

	// Phase 1: single-threaded workload under one armed all-device capture.
	devs := st.Devices()
	ms := pmem.NewMultiScheduler(devs...)
	ms.SetBudget(cfg.ChainDepth)
	pauds, auds := xshardAttach(devs, ms, cfg.Audit)
	if pauds != nil {
		st.SetAuditors(pauds)
		roundAuds = append(roundAuds, auds...)
	}
	policy := randPolicy(rrng)
	// A single-key tx is ~24 events; a cross-shard batch several times that.
	// Overshooting lets some rounds crash post-workload, quiescent.
	ms.Arm(uint64(1+rrng.Intn(cfg.OpsPerRound*64+96)), policy)

	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	state := map[int]uint64{}
	// states[i] is the keyspace after the i-th completed operation;
	// mustSurvive is the latest state known committed before the crash.
	states := []map[int]uint64{{}}
	mustSurvive := 0
	for i := 0; i < cfg.OpsPerRound; i++ {
		next := map[int]uint64{}
		for k, v := range state {
			next[k] = v
		}
		if rrng.Intn(5) < 2 { // cross-shard batch
			b := &kvstore.Batch{}
			n := 3 + rrng.Intn(4)
			hit := map[int]bool{}
			for o := 0; o < n; o++ {
				k := rrng.Intn(cfg.Keys)
				hit[st.ShardFor(key(k))] = true
				if rrng.Intn(4) == 0 {
					b.Delete(key(k))
					delete(next, k)
				} else {
					v := rrng.Uint64()
					b.Put(key(k), []byte(fmt.Sprintf("%d", v)))
					next[k] = v
				}
			}
			if err := st.Write(b); err != nil {
				return fmt.Errorf("round %d op %d (batch): %w", round, i, err)
			}
			if len(hit) > 1 {
				rep.XBatches++
			}
		} else { // single-key op
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
		}
		state = next
		states = append(states, next)
		if !ms.Captured() {
			mustSurvive = i + 1
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
	chain := []CrashPoint{{Event: ev}}

	// Phase 2: the crash chain. Reopen each image set under a freshly armed
	// multi-scheduler; a crash during Reopen (shard recoveries plus the
	// coordinator's in-doubt resolution) yields the next link.
	var final *shard.Store
	for {
		rdevs := make([]*pmem.Device, len(imgs))
		for i, img := range imgs {
			rdevs[i] = pmem.FromImage(img, pmem.ModelDRAM)
		}
		pending := xshardPending(imgs)
		ms2 := pmem.NewMultiScheduler(rdevs...)
		ms2.SetBudget(1)
		if len(chain) < cfg.ChainDepth {
			armInsideReopen(rrng, imgs, func(d []*pmem.Device) {
				_, _ = shard.Reopen(d, xshardOpts(cfg)) // rehearsal; the Reopen below reports errors
			}, ms2.Arm)
		}
		ropts := xshardOpts(cfg)
		pauds2, auds2 := xshardAttach(rdevs, ms2, cfg.Audit)
		ropts.Auditors = pauds2
		// Chain-crashed reopens keep their auditors in the round's pool too:
		// a violation detected before the capture fired is still a violation.
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
		// Detach cleared the composed bundles; keep the recovered store's
		// auditors alone in place for validation and close.
		for _, a := range auds2 {
			a.Attach()
		}
		final = st2
		break
	}
	stats := final.Stats()
	rep.Replays += stats.XReplays
	rep.Rollbacks += stats.XRollback

	// Phase 3: validate. The recovered store must equal the keyspace after
	// some completed operation >= mustSurvive — exact-prefix matching makes
	// a half-applied cross-shard batch (or any lost acknowledged write) a
	// round failure, since a partial state matches no prefix.
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
			"recovered store has %d pairs, matched prefix implies %d", n, len(states[matched]))}
	}
	if matched < len(states)-1 {
		rep.RolledBack++
	} else {
		rep.CarriedForward++
	}

	// The recovered store must keep working, including cross-shard commits.
	if err := final.Put(key(0), []byte("probe")); err != nil {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("recovered store unusable: %v", err)}
	}
	pb := &kvstore.Batch{}
	for k := 0; k < cfg.Keys && k < 8; k++ {
		pb.Put(key(k), []byte("probe-batch"))
	}
	if err := final.Write(pb); err != nil {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("post-recovery batch failed: %v", err)}
	}
	if v, err := final.Get(key(1)); err != nil || string(v) != "probe-batch" {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("post-recovery batch not readable: %q err=%v", v, err)}
	}

	// Phase 4 (audit rounds): close is the final durability claim, then any
	// violation across the round's auditors fails it.
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

func xshardStateMatches(st *shard.Store, want map[int]uint64, keys int, key func(int) []byte) bool {
	for k := 0; k < keys; k++ {
		wantV, ok := want[k]
		got, err := st.Get(key(k))
		if ok != (err == nil) {
			return false
		}
		if ok && string(got) != fmt.Sprintf("%d", wantV) {
			return false
		}
	}
	return true
}
