// Package crashtest runs randomized crash-chain campaigns against every
// engine in the repository: the three Romulus variants, the undo-log and
// redo-log baselines, and the RomulusDB key-value store.
//
// Each round drives a concurrent multi-goroutine workload over a persistent
// map, captures a simulated power failure at a random persistence event
// under a random adversary policy, then reopens the crash image. Reopening
// itself runs under an armed crash scheduler, so the next failure lands
// *inside* recovery — crash → partial recovery → crash again, as deep as the
// configured chain. The finally recovered state is validated against
// per-worker transaction histories: each worker's keys must reflect exactly
// a durable prefix of that worker's committed transactions.
//
// Violations surface as a structured Failure carrying everything needed to
// replay the round: campaign and round seeds, thread count, and the full
// crash chain (event indices and whether recovery work was pending).
package crashtest

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// Config parameterizes a campaign.
type Config struct {
	// Rounds is the number of build/crash/recover cycles per engine.
	Rounds int
	// Seed makes campaigns reproducible (fully deterministic at Threads 1).
	Seed int64
	// Keys bounds the keyspace (default 64).
	Keys int
	// TxPerRound bounds committed transactions per worker before the crash
	// (default 12).
	TxPerRound int
	// Threads is the number of workload goroutines (default 2). Engines
	// whose commit path cannot share the simulated device run with 1.
	Threads int
	// ChainDepth is the maximum crashes per round (default 1): the first
	// lands in the workload, later ones inside recovery itself.
	ChainDepth int
	// Engines selects the subjects by name; empty or "all" means every one.
	Engines []string
	// Metrics, when non-nil, accumulates campaign totals into the registry:
	// the pmem_* counters summed over every device the campaign creates
	// (workload devices plus every reopened crash image) and crash_*
	// counters folded from the per-engine reports. Devices are per-round, so
	// unlike obs.Instrument the counters here are accumulated, not sampled.
	Metrics *obs.Registry
	// Trace, when non-nil, receives one obs.TxEvent per workload transaction
	// (validation reads after recovery are not traced). The sink must be
	// safe for concurrent Emit calls at Threads > 1.
	Trace obs.Sink
	// Audit attaches a durability auditor to every device the campaign
	// creates (workload devices and each reopened crash image), composed
	// with the crash scheduler via pmem.ChainHooks. Any durability
	// violation — a dirty or unfenced line at a commit-marker advance, a
	// durably-claimed line lost at a crash, or one still unflushed at
	// engine close — fails the round. Waste diagnostics accumulate into
	// Metrics as audit_* counters.
	Audit bool
}

func (cfg *Config) applyDefaults() {
	if cfg.Keys == 0 {
		cfg.Keys = 64
	}
	if cfg.TxPerRound == 0 {
		cfg.TxPerRound = 12
	}
	if cfg.Threads == 0 {
		cfg.Threads = 2
	}
	if cfg.ChainDepth == 0 {
		cfg.ChainDepth = 1
	}
}

// Report summarizes one engine's campaign.
type Report struct {
	Engine string `json:"engine"`
	Rounds int    `json:"rounds"`
	// Threads is the worker count actually used (engines that cannot share
	// the device run with 1 regardless of Config.Threads).
	Threads int `json:"threads"`
	// MidTxCrashes counts rounds whose first crash interrupted the workload
	// (the rest crashed post-commit, at a quiescent point).
	MidTxCrashes int `json:"mid_tx_crashes"`
	// RolledBack and CarriedForward count workers whose recovered prefix
	// excluded/included their final committed transaction.
	RolledBack     int `json:"rolled_back"`
	CarriedForward int `json:"carried_forward"`
	// ChainCrashes counts crashes beyond the first, i.e. crashes injected
	// while an engine was reopening a crash image.
	ChainCrashes int `json:"chain_crashes"`
	// RecoveryCrashes counts chain crashes that interrupted real recovery
	// work (the image had an in-flight transaction or non-empty log).
	RecoveryCrashes int `json:"recovery_crashes"`
	// AuditViolations counts durability violations detected by the auditor
	// (only populated with Config.Audit; any nonzero count also fails the
	// offending round).
	AuditViolations uint64 `json:"audit_violations,omitempty"`
	// AuditWaste aggregates the auditor's waste diagnostics over the
	// campaign (only populated with Config.Audit).
	AuditWaste audit.Waste `json:"audit_waste,omitempty"`
}

// CrashPoint records one injected failure of a round's crash chain.
type CrashPoint struct {
	// Event is the persistence-event index the image was captured at.
	Event uint64 `json:"event"`
	// DuringOpen is true for chain crashes injected while reopening.
	DuringOpen bool `json:"during_open"`
	// RecoveryPending is true when the image being reopened required real
	// recovery work.
	RecoveryPending bool `json:"recovery_pending"`
}

// Failure describes a safety violation with everything needed to reproduce
// it. It implements error.
type Failure struct {
	Engine       string       `json:"engine"`
	Round        int          `json:"round"`
	CampaignSeed int64        `json:"campaign_seed"`
	RoundSeed    int64        `json:"round_seed"`
	Threads      int          `json:"threads"`
	Chain        []CrashPoint `json:"chain"`
	Reason       string       `json:"reason"`
}

func (f *Failure) Error() string {
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Sprintf("crashtest failure: %s round %d: %s", f.Engine, f.Round, f.Reason)
	}
	return "crashtest failure: " + string(b)
}

// Run executes one campaign per selected engine, returning the per-engine
// reports and the first Failure found (nil if every round validates).
// Reports for engines that completed before the failure are still returned.
func Run(cfg Config) ([]Report, error) {
	cfg.applyDefaults()
	tgts, err := selectTargets(cfg.Engines)
	if err != nil {
		return nil, err
	}
	var reports []Report
	var failure error
	for _, tgt := range tgts {
		rep, err := runCampaign(cfg, tgt)
		reports = append(reports, rep)
		if err != nil {
			failure = err
			break
		}
	}
	if r := cfg.Metrics; r != nil {
		for _, rep := range reports {
			r.Counter("crash_rounds_total").Add(uint64(rep.Rounds))
			r.Counter("crash_mid_tx_total").Add(uint64(rep.MidTxCrashes))
			r.Counter("crash_chain_total").Add(uint64(rep.ChainCrashes))
			r.Counter("crash_recovery_crash_total").Add(uint64(rep.RecoveryCrashes))
			r.Counter("crash_rolled_back_total").Add(uint64(rep.RolledBack))
			r.Counter("crash_carried_forward_total").Add(uint64(rep.CarriedForward))
		}
	}
	return reports, failure
}

// accumDevice folds one device's lifetime statistics into the campaign
// registry. Crash-test devices live for a fraction of a round, so campaign
// totals must be accumulated device by device rather than collected from a
// live device at snapshot time.
func accumDevice(r *obs.Registry, dev *pmem.Device) {
	if r == nil {
		return
	}
	s := dev.Stats()
	r.Counter("pmem_store_total").Add(s.Stores)
	r.Counter("pmem_store_bytes_total").Add(s.BytesStored)
	r.Counter("pmem_pwb_total").Add(s.Pwbs)
	r.Counter("pmem_pfence_total").Add(s.Pfences)
	r.Counter("pmem_psync_total").Add(s.Psyncs)
	r.Counter("pmem_fence_total").Add(s.Pfences + s.Psyncs)
	r.Counter("pmem_line_persisted_total").Add(s.LinesPersisted)
	r.Counter("pmem_persisted_bytes_total").Add(s.BytesPersisted)
}

// accumAudit folds one auditor's lifetime counters into the campaign
// registry and the per-engine report, following the same accumulation
// discipline as accumDevice (auditors are per-device, devices per-round).
func accumAudit(r *obs.Registry, rep *Report, a *audit.Auditor) {
	if a == nil {
		return
	}
	t := a.Totals()
	rep.AuditWaste.PwbClean += t.PwbClean
	rep.AuditWaste.PwbRequeued += t.PwbRequeued
	rep.AuditWaste.StoreQueued += t.StoreQueued
	rep.AuditWaste.FenceNoop += t.FenceNoop
	if r == nil {
		return
	}
	r.Counter("audit_pwb_clean_total").Add(t.PwbClean)
	r.Counter("audit_pwb_requeued_total").Add(t.PwbRequeued)
	r.Counter("audit_store_queued_total").Add(t.StoreQueued)
	r.Counter("audit_fence_noop_total").Add(t.FenceNoop)
	r.Counter("audit_durable_check_total").Add(t.DurableChecks)
	r.Counter("audit_violation_total").Add(t.Violations)
}

// forensicTrigger snapshots an auditor's crash forensics at the moment the
// scheduler captures an image. It rides as the last bundle in the hook
// chain: the auditor's shadow is already current and the scheduler has just
// (maybe) captured, so checking at each fence diffs the views at the exact
// failure point, before any later durable point can move the claim line.
// finish is the harness-side fallback for captures not followed by a fence
// (quiescent CaptureNow, or a crash landing on a trailing store).
type forensicTrigger struct {
	sched *pmem.Scheduler
	aud   *audit.Auditor

	mu   sync.Mutex
	done bool
}

func (f *forensicTrigger) hooks() *pmem.Hooks {
	return &pmem.Hooks{Fence: f.onFence}
}

func (f *forensicTrigger) onFence() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return
	}
	if img, _ := f.sched.Image(); img != nil {
		f.done = true
		f.aud.Forensics(img)
	}
}

// finish runs the forensic diff for img unless a fence already did.
func (f *forensicTrigger) finish(img []byte) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.done && img != nil {
		f.done = true
		f.aud.Forensics(img)
	}
}

// roundAudit owns one round's auditors (one per device: the workload device
// plus every reopened crash image).
type roundAudit struct {
	enabled bool
	auds    []*audit.Auditor
}

// attach builds an auditor for dev and installs the round's hook
// composition — auditor, then scheduler, then forensic trigger — replacing
// the scheduler-only bundle NewScheduler installed. Returns nils when
// auditing is off (the scheduler's own bundle stays in place).
func (ra *roundAudit) attach(dev *pmem.Device, sched *pmem.Scheduler) (*audit.Auditor, *forensicTrigger) {
	if !ra.enabled {
		return nil, nil
	}
	a := audit.New(dev, audit.Options{})
	ra.auds = append(ra.auds, a)
	trig := &forensicTrigger{sched: sched, aud: a}
	dev.SetHooks(pmem.ChainHooks(a.Hooks(), sched.Hooks(), trig.hooks()))
	return a, trig
}

// violations sums detected violations across the round's auditors and
// returns the first retained record for diagnostics.
func (ra *roundAudit) violations() (uint64, *audit.Violation) {
	var total uint64
	var first *audit.Violation
	for _, a := range ra.auds {
		total += a.ViolationCount()
		if first == nil {
			if vs := a.Violations(); len(vs) > 0 {
				first = &vs[0]
			}
		}
	}
	return total, first
}

// engineSeed derives a per-engine stream so campaigns are reproducible
// independently of which engines are selected.
func engineSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

func runCampaign(cfg Config, tgt target) (Report, error) {
	threads := cfg.Threads
	if !tgt.concurrent {
		threads = 1
	}
	if threads > cfg.Keys {
		threads = cfg.Keys
	}
	rep := Report{Engine: tgt.name, Threads: threads}
	rng := rand.New(rand.NewSource(engineSeed(cfg.Seed, tgt.name)))
	for round := 0; round < cfg.Rounds; round++ {
		roundSeed := rng.Int63()
		if err := runRound(cfg, tgt, threads, round, roundSeed, &rep); err != nil {
			if f, ok := err.(*Failure); ok {
				f.Engine = tgt.name
				f.Round = round
				f.CampaignSeed = cfg.Seed
				f.RoundSeed = roundSeed
				f.Threads = threads
			}
			return rep, err
		}
		rep.Rounds++
	}
	return rep, nil
}

func randPolicy(rng *rand.Rand) pmem.CrashPolicy {
	return pmem.CrashPolicy{
		QueuedPersistProb: rng.Float64(),
		EvictDirtyProb:    rng.Float64() * 0.5,
		TearWords:         rng.Intn(2) == 0,
		Rand:              rand.New(rand.NewSource(rng.Int63())),
	}
}

// armInsideReopen arms a crash inside the reopen the caller is about to run.
// How many persistence events a recovery issues depends on what the crash
// damaged — a dozen for a diff-copy repair of a few lines, hundreds for a log
// replay — so a fixed arming range mostly overshoots the short ones. The
// reopen is first rehearsed on throwaway devices built from the same images,
// its events counted, and the crash armed uniformly within that count; a
// reopen that issues no events has nothing to crash into and stays unarmed.
func armInsideReopen(rrng *rand.Rand, imgs [][]byte, rehearse func(devs []*pmem.Device),
	arm func(eventsFromNow uint64, policy pmem.CrashPolicy) bool) {
	devs := make([]*pmem.Device, len(imgs))
	for i, img := range imgs {
		devs[i] = pmem.FromImage(img, pmem.ModelDRAM)
	}
	count := pmem.NewMultiScheduler(devs...)
	count.Attach()
	rehearse(devs)
	count.Detach()
	if n := count.Events(); n > 0 {
		arm(uint64(1+rrng.Intn(int(n))), randPolicy(rrng))
	}
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

func runRound(cfg Config, tgt target, threads, round int, roundSeed int64, rep *Report) error {
	rrng := rand.New(rand.NewSource(roundSeed))
	st, err := tgt.fresh()
	if err != nil {
		return fmt.Errorf("building fresh %s store: %w", tgt.name, err)
	}
	if cfg.Trace != nil {
		st.setTrace(cfg.Trace)
	}

	// Phase 1: concurrent workload with one armed crash. The scheduler
	// attaches after the store exists, so the map root is always durable
	// and every captured image reopens through the recovery path, never
	// through format.
	ra := &roundAudit{enabled: cfg.Audit}
	sched := pmem.NewScheduler(st.dev())
	sched.SetBudget(cfg.ChainDepth)
	aud, trig := ra.attach(st.dev(), sched)
	if aud != nil {
		st.setAudit(aud)
	}
	policy := randPolicy(rrng)
	// ~24 persistence events per small transaction; the range deliberately
	// overshoots so some rounds crash post-workload, at a quiescent point.
	crashAt := uint64(1 + rrng.Intn(threads*cfg.TxPerRound*24+32))
	sched.Arm(crashAt, policy)

	workers := make([]*workerHistory, threads)
	for w := 0; w < threads; w++ {
		h := &workerHistory{states: []map[uint64]uint64{{}}}
		for k := uint64(w); k < uint64(cfg.Keys); k += uint64(threads) {
			h.keys = append(h.keys, k)
		}
		workers[w] = h
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		w := w
		h := workers[w]
		wrng := rand.New(rand.NewSource(roundSeed ^ int64(uint64(w+1)*0x9E3779B97F4A7C15)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			nTx := 1 + wrng.Intn(cfg.TxPerRound)
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
				next := map[uint64]uint64{}
				for k, v := range h.states[i] {
					next[k] = v
				}
				for _, o := range ops {
					if o.del {
						delete(next, o.k)
					} else {
						next[o.k] = o.v
					}
				}
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

	img, ev := sched.Image()
	if img != nil {
		rep.MidTxCrashes++
	} else {
		// Workload outran the armed event: crash now, post-commit.
		img = sched.CaptureNow(policy)
		ev = sched.Events()
	}
	// Forensics fallback for captures with no subsequent fence (quiescent
	// CaptureNow, or a crash landing on the workload's last store).
	trig.finish(img)
	sched.Detach()
	accumDevice(cfg.Metrics, st.dev())
	chain := []CrashPoint{{Event: ev}}

	// Phase 2: the crash chain. Reopen each image under a freshly armed
	// scheduler; if the crash fires during Open, the partially recovered
	// image becomes the next link.
	var final store
	for {
		dev := pmem.FromImage(img, pmem.ModelDRAM)
		pending := tgt.pending(img)
		s2 := pmem.NewScheduler(dev)
		s2.SetBudget(1)
		if len(chain) < cfg.ChainDepth {
			armInsideReopen(rrng, [][]byte{img}, func(d []*pmem.Device) {
				_, _ = tgt.reopen(d[0], nil) // rehearsal; the reopen below reports errors
			}, s2.Arm)
		}
		a2, trig2 := ra.attach(dev, s2)
		var audArg ptm.Auditor
		if a2 != nil {
			audArg = a2
		}
		st2, err := tgt.reopen(dev, audArg)
		if s2.Captured() {
			img2, ev2 := s2.Image()
			trig2.finish(img2)
			s2.Detach()
			accumDevice(cfg.Metrics, dev)
			rep.ChainCrashes++
			if pending {
				rep.RecoveryCrashes++
			}
			chain = append(chain, CrashPoint{Event: ev2, DuringOpen: true, RecoveryPending: pending})
			img = img2
			continue
		}
		s2.Detach()
		if err != nil {
			return &Failure{Chain: chain, Reason: fmt.Sprintf("reopen failed: %v", err)}
		}
		// Detach cleared the whole composed bundle; reinstall the auditor
		// alone so the validation probe and engine close stay audited.
		if a2 != nil {
			dev.SetHooks(a2.Hooks())
		}
		final = st2
		break
	}
	// Covers recovery work plus the validation reads and probe below.
	defer accumDevice(cfg.Metrics, final.dev())

	// Phase 3: validate the recovered state.
	if err := final.check(); err != nil {
		return &Failure{Chain: chain, Reason: err.Error()}
	}
	total := 0
	for w, h := range workers {
		k, ok := matchPrefix(final, h)
		if !ok {
			return &Failure{Chain: chain, Reason: fmt.Sprintf(
				"worker %d: recovered keys match no committed prefix in [%d,%d]",
				w, h.mustSurvive, len(h.states)-1)}
		}
		total += len(h.states[k])
		if k < len(h.states)-1 {
			rep.RolledBack++
		} else {
			rep.CarriedForward++
		}
	}
	if n, err := final.size(); err != nil {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("size after recovery: %v", err)}
	} else if n != total {
		return &Failure{Chain: chain, Reason: fmt.Sprintf(
			"recovered store has %d pairs, matched prefixes imply %d", n, total)}
	}
	// The recovered store must keep working.
	probe := uint64(round)
	if err := final.update([]op{{k: 0, v: probe}}); err != nil {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("recovered store unusable: %v", err)}
	}
	if v, found, err := final.get(0); err != nil || !found || v != probe {
		return &Failure{Chain: chain, Reason: fmt.Sprintf(
			"post-recovery write not readable: v=%d found=%v err=%v", v, found, err)}
	}

	// Phase 4 (audit rounds only): closing is the engine's final durability
	// claim; then any violation recorded by any of the round's auditors —
	// workload, chained recoveries, or the probe — fails the round.
	if cfg.Audit {
		if err := final.close(); err != nil {
			return &Failure{Chain: chain, Reason: fmt.Sprintf("close after recovery: %v", err)}
		}
		for _, a := range ra.auds {
			accumAudit(cfg.Metrics, rep, a)
		}
		if n, v := ra.violations(); n > 0 {
			rep.AuditViolations += n
			reason := fmt.Sprintf("auditor: %d durability violation(s)", n)
			if v != nil {
				reason += fmt.Sprintf("; first: [%s] at %s: line %d off %d state=%s seq=%d engine=%s tx=%s site=%s",
					v.Kind, v.Point, v.Line, v.Off, v.State, v.Seq, v.Engine, v.TxKind, v.Site)
			}
			return &Failure{Chain: chain, Reason: reason}
		}
	}
	return nil
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
