package crashtest

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// This file is the mid-replicate crash campaign: it aims simulated power
// failures at the replication phase of the core engines' durability round —
// the window between a commit's durable point (state CPY, transaction
// already durable) and the return to IDL, where dirty-range replication
// copies only the round's touched cache lines back. Under sparse dirty sets
// most of the back region is intentionally NOT copied during that window, so
// a crash inside it exercises exactly the argument DESIGN.md makes for the
// dirty-extent tracker: recovery never consults the (volatile) dirty set, it
// diffs the whole watermark prefix against the consistent main region.
//
// Workers store into widely scattered lanes — one cache line per slot — so
// the rom engine's dirty set is a handful of isolated lines. A ptm.Auditor
// shim (replicateArmer) counts commit durable points and arms the crash
// scheduler a few persistence events after a randomly chosen commit, landing
// the capture inside (or just after) that round's replication. Validation
// replays each worker's surviving operation prefix and compares every lane
// slot byte for byte, then checks twin-copy agreement and heap health.

// ReplicateConfig parameterizes a mid-replicate crash campaign.
type ReplicateConfig struct {
	// Rounds is the number of build/crash/recover cycles per variant.
	Rounds int
	// Seed makes campaigns reproducible (fully deterministic at Threads 1).
	Seed int64
	// Threads is the number of concurrent writer goroutines (default 2).
	Threads int
	// OpsPerWorker bounds updates per worker before the crash (default 12).
	OpsPerWorker int
	// ChainDepth is the maximum crashes per round (default 1): the first
	// lands in the workload, later ones inside recovery itself.
	ChainDepth int
	// Engines selects variants by name (rom, rom-full, romlog, romlr);
	// empty or "all" means all four.
	Engines []string
	// Audit chains the durability auditor in front of the crash scheduler
	// on every device of the campaign; violations fail the round.
	Audit bool
}

func (cfg *ReplicateConfig) applyDefaults() {
	if cfg.Threads == 0 {
		cfg.Threads = 2
	}
	if cfg.OpsPerWorker == 0 {
		cfg.OpsPerWorker = 12
	}
	if cfg.ChainDepth == 0 {
		cfg.ChainDepth = 1
	}
}

// ReplicateReport summarizes one variant's mid-replicate campaign.
type ReplicateReport struct {
	Engine  string `json:"engine"`
	Rounds  int    `json:"rounds"`
	Threads int    `json:"threads"`
	// MidReplicateCrashes counts rounds whose captured image was in state
	// CPY — the crash interrupted replication itself, after the durable
	// point and before the return to IDL.
	MidReplicateCrashes int `json:"mid_replicate_crashes"`
	// MidRoundCrashes counts rounds whose crash interrupted the workload at
	// all (the rest crashed post-workload, at a quiescent point).
	MidRoundCrashes int `json:"mid_round_crashes"`
	// ChainCrashes counts crashes injected while reopening a crash image;
	// RecoveryCrashes the subset that interrupted real recovery work.
	ChainCrashes    int `json:"chain_crashes"`
	RecoveryCrashes int `json:"recovery_crashes"`
	// OpsSurvived and OpsLost count workload operations across all rounds
	// by whether recovery exposed their effect.
	OpsSurvived int `json:"ops_survived"`
	OpsLost     int `json:"ops_lost"`
	// AuditViolations counts durability violations (Audit campaigns only;
	// any nonzero count also fails the offending round).
	AuditViolations uint64 `json:"audit_violations,omitempty"`
}

// replicateVariants covers the dirty-range default, the full-copy ablation
// (the paper's original O(watermark) replicate), and the two logged
// variants, so the campaign pins crash-equivalence across replication
// strategies, not just the new one.
var replicateVariants = []struct {
	name string
	cfg  core.Config
}{
	{"rom", core.Config{Variant: core.Rom}},
	{"rom-full", core.Config{Variant: core.Rom, FullReplicate: true}},
	{"romlog", core.Config{Variant: core.RomLog}},
	{"romlr", core.Config{Variant: core.RomLR}},
}

// ReplicateEngineNames lists the variants the mid-replicate campaign drives.
func ReplicateEngineNames() []string {
	names := make([]string, len(replicateVariants))
	for i, rv := range replicateVariants {
		names[i] = rv.name
	}
	return names
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

// RunReplicate executes one mid-replicate campaign per selected variant,
// returning per-variant reports and the first Failure found (nil when every
// round validates).
func RunReplicate(cfg ReplicateConfig) ([]ReplicateReport, error) {
	cfg.applyDefaults()
	selected := map[string]bool{}
	all := len(cfg.Engines) == 0
	for _, n := range cfg.Engines {
		if n == "all" {
			all = true
		}
		selected[n] = true
	}
	var reports []ReplicateReport
	for _, rv := range replicateVariants {
		if !all && !selected[rv.name] {
			continue
		}
		rep := ReplicateReport{Engine: rv.name, Threads: cfg.Threads}
		rng := rand.New(rand.NewSource(engineSeed(cfg.Seed, "replicate-"+rv.name)))
		for round := 0; round < cfg.Rounds; round++ {
			roundSeed := rng.Int63()
			if err := replicateRound(cfg, rv.cfg, round, roundSeed, &rep); err != nil {
				if f, ok := err.(*Failure); ok {
					f.Engine = rv.name
					f.Round = round
					f.CampaignSeed = cfg.Seed
					f.RoundSeed = roundSeed
					f.Threads = cfg.Threads
				}
				return append(reports, rep), err
			}
			rep.Rounds++
		}
		reports = append(reports, rep)
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("crashtest: no replicate variant matches %v (known: %v)",
			cfg.Engines, ReplicateEngineNames())
	}
	return reports, nil
}

// Lane geometry: each worker owns laneSlots slots, one cache line apart, so
// a transaction's stores land on isolated lines and the rom dirty set stays
// sparse — the case where dirty-range replication skips the most media.
const laneSlots = 16

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

func replicateRound(cfg ReplicateConfig, ecfg core.Config, round int, roundSeed int64, rep *ReplicateReport) error {
	rrng := rand.New(rand.NewSource(roundSeed))
	e, err := core.New(crashRegion, ecfg)
	if err != nil {
		return fmt.Errorf("building fresh %s engine: %w", ecfg.Variant, err)
	}

	// Setup: one committed transaction creating the lane array, so every
	// captured image reopens through recovery, never format.
	laneBytes := laneSlots * pmem.LineSize
	var lanes ptm.Ptr
	err = e.Update(func(tx ptm.Tx) error {
		p, err := tx.Alloc(laneBytes * cfg.Threads)
		if err != nil {
			return err
		}
		tx.SetRoot(0, p)
		lanes = p
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s setup: %w", ecfg.Variant, err)
	}

	ra := &roundAudit{enabled: cfg.Audit}
	sched := pmem.NewScheduler(e.Device())
	sched.SetBudget(cfg.ChainDepth)
	aud, trig := ra.attach(e.Device(), sched)
	// The armer wraps the (possibly nil) auditor; it arms the scheduler at a
	// random commit's durable point plus a small event offset, so the crash
	// fires while replicate() is copying this round's dirty extents. With
	// flat combining several ops can share one commit, so the target may
	// never be reached — those rounds crash post-workload instead.
	armer := &replicateArmer{
		sched:  sched,
		policy: randPolicy(rrng),
		target: 1 + rrng.Intn(cfg.Threads*cfg.OpsPerWorker),
		offset: uint64(1 + rrng.Intn(8)),
	}
	if aud != nil { // keep the interface nil for unaudited rounds
		armer.inner = aud
	}
	e.SetAuditor(armer)

	workers := make([]*replicateWorker, cfg.Threads)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		w := w
		rw := &replicateWorker{}
		workers[w] = rw
		wrng := rand.New(rand.NewSource(roundSeed ^ int64(uint64(w+1)*0x9E3779B97F4A7C15)))
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
			nOps := 1 + wrng.Intn(cfg.OpsPerWorker)
			for i := 1; i <= nOps; i++ {
				i := i
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
			return fmt.Errorf("%s replicate workload: %w", ecfg.Variant, rw.err)
		}
	}

	img, ev := sched.Image()
	if img != nil {
		rep.MidRoundCrashes++
		if core.ReplicationPending(img) {
			rep.MidReplicateCrashes++
		}
	} else {
		img = sched.CaptureNow(randPolicy(rrng))
		ev = sched.Events()
	}
	trig.finish(img)
	sched.Detach()
	chain := []CrashPoint{{Event: ev}}

	// Crash chain: reopen each image under a freshly armed scheduler; a
	// crash during Open makes the partially recovered image the next link.
	var final *core.Engine
	for {
		dev := pmem.FromImage(img, pmem.ModelDRAM)
		pending := core.RecoveryPending(img)
		s2 := pmem.NewScheduler(dev)
		s2.SetBudget(1)
		if len(chain) < cfg.ChainDepth {
			armInsideReopen(rrng, [][]byte{img}, func(d []*pmem.Device) {
				_, _ = core.Open(d[0], ecfg) // rehearsal; the Open below reports errors
			}, s2.Arm)
		}
		a2, trig2 := ra.attach(dev, s2)
		ocfg := ecfg
		if a2 != nil {
			ocfg.Audit = a2
		}
		e2, err := core.Open(dev, ocfg)
		if s2.Captured() {
			img2, ev2 := s2.Image()
			trig2.finish(img2)
			s2.Detach()
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
		if a2 != nil {
			dev.SetHooks(a2.Hooks())
		}
		final = e2
		break
	}

	// Validate: engine invariants, then each worker's lane against a replay
	// of its surviving operation prefix — every slot, not just the counter,
	// so a partially replicated (or partially recovered) scattered store
	// cannot hide.
	if err := final.CheckHeap(); err != nil {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("heap after recovery: %v", err)}
	}
	if off := final.Verify(); off >= 0 {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("twin copies diverge at offset %d", off)}
	}
	lanesGot := make([][]uint64, cfg.Threads)
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
		return &Failure{Chain: chain, Reason: fmt.Sprintf("reading recovered lanes: %v", err)}
	}
	for w, rw := range workers {
		got := lanesGot[w]
		r := int(got[0])
		if r < rw.mustSurvive || r > rw.committed {
			return &Failure{Chain: chain, Reason: fmt.Sprintf(
				"worker %d: recovered count %d outside committed range [%d,%d]",
				w, r, rw.mustSurvive, rw.committed)}
		}
		rep.OpsSurvived += r
		rep.OpsLost += rw.committed - r
		want := make([]uint64, laneSlots)
		for i := 1; i <= r; i++ {
			laneOps(w, i, func(slot int, v uint64) { want[slot] = v })
		}
		for s := range want {
			if got[s] != want[s] {
				return &Failure{Chain: chain, Reason: fmt.Sprintf(
					"worker %d slot %d: recovered %#x, replay of %d surviving ops gives %#x",
					w, s, got[s], r, want[s])}
			}
		}
	}

	// The recovered engine must keep working.
	probe := uint64(round + 1)
	err = final.Update(func(tx ptm.Tx) error {
		tx.Store64(tx.Root(0), probe)
		return nil
	})
	if err != nil {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("recovered engine unusable: %v", err)}
	}
	var got uint64
	err = final.Read(func(tx ptm.Tx) error {
		got = tx.Load64(tx.Root(0))
		return nil
	})
	if err != nil || got != probe {
		return &Failure{Chain: chain, Reason: fmt.Sprintf(
			"post-recovery write not readable: got %d want %d err=%v", got, probe, err)}
	}

	if cfg.Audit {
		if err := final.Close(); err != nil {
			return &Failure{Chain: chain, Reason: fmt.Sprintf("close after recovery: %v", err)}
		}
		if n, viol := ra.violations(); n > 0 {
			rep.AuditViolations += n
			reason := fmt.Sprintf("auditor: %d durability violation(s)", n)
			if viol != nil {
				reason += fmt.Sprintf("; first: [%s] at %s: line %d off %d state=%s seq=%d engine=%s tx=%s site=%s",
					viol.Kind, viol.Point, viol.Line, viol.Off, viol.State, viol.Seq, viol.Engine, viol.TxKind, viol.Site)
			}
			return &Failure{Chain: chain, Reason: reason}
		}
	}
	return nil
}
