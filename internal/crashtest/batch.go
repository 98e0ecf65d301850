package crashtest

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// This file is the combined-commit crash campaign: it aims simulated power
// failures at the flat combiner's batched durability rounds and checks the
// property the batching design owes its users — a combined batch is
// crash-atomic. Every operation UpdateBatched reports under one batch
// sequence number became durable together or not at all, and durability
// respects batch commit order (the recovered state is a prefix of the
// sequence of committed rounds, never a subset with holes).
//
// Each worker owns one 8-byte slot of a shared persistent array and writes
// an increasing counter into it, one batched update per increment, recording
// the batch sequence number of every commit. After the crash (and a chained
// reopen that may crash again inside recovery), the recovered slot values
// reveal exactly which operations survived; the recorded sequence numbers
// then let the harness assert that no batch was split and no later round
// survived an earlier round's loss.

// BatchConfig parameterizes a combined-batch crash campaign.
type BatchConfig struct {
	// Rounds is the number of build/crash/recover cycles per variant.
	Rounds int
	// Seed makes campaigns reproducible (fully deterministic at Threads 1).
	Seed int64
	// Threads is the number of concurrent writer goroutines (default 4).
	Threads int
	// OpsPerWorker bounds batched updates per worker before the crash
	// (default 16).
	OpsPerWorker int
	// ChainDepth is the maximum crashes per round (default 1): the first
	// lands in the workload, later ones inside recovery itself.
	ChainDepth int
	// Engines selects core variants by name (rom, romlog, romlr); empty or
	// "all" means all three.
	Engines []string
	// Audit chains the durability auditor in front of the crash scheduler on
	// every device of the campaign; violations fail the round.
	Audit bool
}

func (cfg *BatchConfig) applyDefaults() {
	if cfg.Threads == 0 {
		cfg.Threads = 4
	}
	if cfg.OpsPerWorker == 0 {
		cfg.OpsPerWorker = 16
	}
	if cfg.ChainDepth == 0 {
		cfg.ChainDepth = 1
	}
}

// BatchReport summarizes one variant's combined-batch campaign.
type BatchReport struct {
	Engine  string `json:"engine"`
	Rounds  int    `json:"rounds"`
	Threads int    `json:"threads"`
	// MidBatchCrashes counts rounds whose crash interrupted the workload
	// (the rest crashed post-workload, at a quiescent point).
	MidBatchCrashes int `json:"mid_batch_crashes"`
	// MultiOpRounds counts rounds whose workload committed at least one
	// durability round carrying more than one operation — the situations the
	// all-or-nothing assertion is about.
	MultiOpRounds int `json:"multi_op_rounds"`
	// ChainCrashes counts crashes injected while reopening a crash image;
	// RecoveryCrashes the subset that interrupted real recovery work.
	ChainCrashes    int `json:"chain_crashes"`
	RecoveryCrashes int `json:"recovery_crashes"`
	// OpsSurvived and OpsLost count workload operations across all rounds by
	// whether recovery exposed their effect.
	OpsSurvived int `json:"ops_survived"`
	OpsLost     int `json:"ops_lost"`
	// AuditViolations counts durability violations (Audit campaigns only;
	// any nonzero count also fails the offending round).
	AuditViolations uint64 `json:"audit_violations,omitempty"`
}

// batchVariants maps engine names to core variants.
var batchVariants = []struct {
	name string
	v    core.Variant
}{
	{"rom", core.Rom},
	{"romlog", core.RomLog},
	{"romlr", core.RomLR},
}

// BatchEngineNames lists the variants the combined-batch campaign drives.
func BatchEngineNames() []string {
	names := make([]string, len(batchVariants))
	for i, bv := range batchVariants {
		names[i] = bv.name
	}
	return names
}

// RunBatch executes one combined-batch campaign per selected variant,
// returning per-variant reports and the first Failure found (nil when every
// round validates).
func RunBatch(cfg BatchConfig) ([]BatchReport, error) {
	cfg.applyDefaults()
	selected := map[string]bool{}
	all := len(cfg.Engines) == 0
	for _, n := range cfg.Engines {
		if n == "all" {
			all = true
		}
		selected[n] = true
	}
	var reports []BatchReport
	for _, bv := range batchVariants {
		if !all && !selected[bv.name] {
			continue
		}
		rep := BatchReport{Engine: bv.name, Threads: cfg.Threads}
		rng := rand.New(rand.NewSource(engineSeed(cfg.Seed, "batch-"+bv.name)))
		for round := 0; round < cfg.Rounds; round++ {
			roundSeed := rng.Int63()
			if err := batchRound(cfg, bv.v, round, roundSeed, &rep); err != nil {
				if f, ok := err.(*Failure); ok {
					f.Engine = bv.name
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
		return nil, fmt.Errorf("crashtest: no batch variant matches %v (known: %v)",
			cfg.Engines, BatchEngineNames())
	}
	return reports, nil
}

// batchWorker records one worker's committed operations. Operation i
// (1-based) stores the value i into the worker's slot, so the recovered slot
// value equals the worker's surviving operation count.
type batchWorker struct {
	seqs        []uint64 // seqs[i-1] is the batch round that committed op i
	mustSurvive int      // ops known durable strictly before the crash fired
	err         error
}

func batchRound(cfg BatchConfig, v core.Variant, round int, roundSeed int64, rep *BatchReport) error {
	rrng := rand.New(rand.NewSource(roundSeed))
	e, err := core.New(crashRegion, core.Config{Variant: v})
	if err != nil {
		return fmt.Errorf("building fresh %s engine: %w", v, err)
	}

	// Setup: one committed transaction creating the slot array, so every
	// captured image reopens through recovery, never format.
	var slots ptm.Ptr
	err = e.Update(func(tx ptm.Tx) error {
		p, err := tx.Alloc(8 * cfg.Threads)
		if err != nil {
			return err
		}
		tx.SetRoot(0, p)
		slots = p
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s setup: %w", v, err)
	}

	ra := &roundAudit{enabled: cfg.Audit}
	sched := pmem.NewScheduler(e.Device())
	sched.SetBudget(cfg.ChainDepth)
	aud, trig := ra.attach(e.Device(), sched)
	if aud != nil {
		e.SetAuditor(aud)
	}
	policy := randPolicy(rrng)
	// Batched commits amortize persistence events across ops, so the event
	// budget per op is lower than the map campaign's; the range still
	// overshoots so some rounds crash post-workload.
	crashAt := uint64(1 + rrng.Intn(cfg.Threads*cfg.OpsPerWorker*12+32))
	sched.Arm(crashAt, policy)

	base := e.Stats()
	workers := make([]*batchWorker, cfg.Threads)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		w := w
		bw := &batchWorker{}
		workers[w] = bw
		wrng := rand.New(rand.NewSource(roundSeed ^ int64(uint64(w+1)*0x9E3779B97F4A7C15)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := e.NewHandle()
			if err != nil {
				bw.err = err
				return
			}
			defer h.Release()
			bh := h.(interface {
				UpdateBatched(func(ptm.Tx) error) (uint64, error)
			})
			nOps := 1 + wrng.Intn(cfg.OpsPerWorker)
			slot := slots + ptm.Ptr(8*w)
			for i := 1; i <= nOps; i++ {
				val := uint64(i)
				seq, err := bh.UpdateBatched(func(tx ptm.Tx) error {
					tx.Store64(slot, val)
					return nil
				})
				if err != nil {
					bw.err = fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
				if seq == 0 {
					bw.err = fmt.Errorf("worker %d op %d: committed with batch seq 0", w, i)
					return
				}
				bw.seqs = append(bw.seqs, seq)
				if !sched.Captured() {
					bw.mustSurvive = i
				}
			}
		}()
	}
	wg.Wait()
	for _, bw := range workers {
		if bw.err != nil {
			return fmt.Errorf("%s batch workload: %w", v, bw.err)
		}
	}
	if st := e.Stats(); st.BatchOps-base.BatchOps > st.Batches-base.Batches {
		rep.MultiOpRounds++
	}

	img, ev := sched.Image()
	if img != nil {
		rep.MidBatchCrashes++
	} else {
		img = sched.CaptureNow(policy)
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
				_, _ = core.Open(d[0], core.Config{Variant: v}) // rehearsal; the Open below reports errors
			}, s2.Arm)
		}
		a2, trig2 := ra.attach(dev, s2)
		var audArg ptm.Auditor
		if a2 != nil {
			audArg = a2
		}
		e2, err := core.Open(dev, core.Config{Variant: v, Audit: audArg})
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

	// Validate: engine invariants, then per-worker prefixes, then batch
	// atomicity across workers.
	if err := final.CheckHeap(); err != nil {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("heap after recovery: %v", err)}
	}
	if off := final.Verify(); off >= 0 {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("twin copies diverge at offset %d", off)}
	}
	recovered := make([]uint64, cfg.Threads)
	err = final.Read(func(tx ptm.Tx) error {
		p := tx.Root(0)
		for w := range recovered {
			recovered[w] = tx.Load64(p + ptm.Ptr(8*w))
		}
		return nil
	})
	if err != nil {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("reading recovered slots: %v", err)}
	}
	var survivedMax uint64
	lostMin := ^uint64(0)
	for w, bw := range workers {
		r := int(recovered[w])
		if r < bw.mustSurvive || r > len(bw.seqs) {
			return &Failure{Chain: chain, Reason: fmt.Sprintf(
				"worker %d: recovered count %d outside committed range [%d,%d]",
				w, r, bw.mustSurvive, len(bw.seqs))}
		}
		rep.OpsSurvived += r
		rep.OpsLost += len(bw.seqs) - r
		for i, seq := range bw.seqs {
			if i < r {
				if seq > survivedMax {
					survivedMax = seq
				}
			} else if seq < lostMin {
				lostMin = seq
			}
		}
	}
	// All-or-nothing per batch, and durability in batch commit order: every
	// surviving operation's round must precede every lost operation's round.
	// A split batch (one op durable, a same-seq op lost) or a gap (later
	// round durable, earlier round lost) both violate this.
	if survivedMax >= lostMin {
		return &Failure{Chain: chain, Reason: fmt.Sprintf(
			"batch atomicity violated: round %d (or earlier) lost while round %d survived",
			lostMin, survivedMax)}
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
