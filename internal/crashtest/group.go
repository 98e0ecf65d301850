package crashtest

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/server"
	"repro/internal/shard"
)

// This file is the network group-commit crash campaign: it aims simulated
// power failures at the server layer's cross-connection batches (see
// internal/server/group.go) and checks the contract the server publishes in
// docs/PROTOCOL.md — a reply released by the group committer means the write
// was durable BEFORE the reply existed, so a crash at any instant loses no
// acknowledged write; and a group batch commits as one transaction, so a
// crash inside its durability round never leaves it partially visible.
//
// Each simulated connection owns one key and writes an increasing counter
// into it through the committer (pipelining a small window of submissions,
// like a real pipelined client), recording the batch sequence number of
// every acknowledged op. After the crash — and a chained reopen that may
// crash again inside recovery — the recovered value of each key reveals
// exactly which acknowledged ops survived; the recorded sequence numbers
// then assert that durability respects batch commit order and no batch was
// split. The workload is genuinely concurrent, so the campaign uses the
// single-device pmem.Scheduler (safe under concurrency) on the one shard
// the store is built with; the coordinator device is captured quiescently
// (group commit never touches it — no cross-shard batches here).

// GroupConfig parameterizes a group-commit crash campaign.
type GroupConfig struct {
	// Rounds is the number of build/crash/recover cycles per variant.
	Rounds int
	// Seed makes campaigns reproducible.
	Seed int64
	// Conns is the number of concurrent submitting "connections" (default 6).
	Conns int
	// OpsPerConn bounds acknowledged writes per connection before the crash
	// (default 12).
	OpsPerConn int
	// MaxBatch bounds one group batch (default 8 — small, so rounds commit
	// many batches and crashes land inside them).
	MaxBatch int
	// ChainDepth is the maximum crashes per round (default 1): the first
	// lands in the workload, later ones inside recovery itself.
	ChainDepth int
	// Engines selects core variants by name (rom, romlog, romlr); empty or
	// "all" means all three.
	Engines []string
	// Metrics, when non-nil, accumulates pmem_* device totals and the
	// group_crash_* campaign counters.
	Metrics *obs.Registry
	// Audit chains the durability auditor in front of the crash scheduler on
	// the shard device for the workload and every reopened image; violations
	// fail the round.
	Audit bool
}

func (cfg *GroupConfig) applyDefaults() {
	if cfg.Conns == 0 {
		cfg.Conns = 6
	}
	if cfg.OpsPerConn == 0 {
		cfg.OpsPerConn = 12
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 8
	}
	if cfg.ChainDepth == 0 {
		cfg.ChainDepth = 1
	}
}

// GroupReport summarizes one variant's group-commit campaign.
type GroupReport struct {
	Engine string `json:"engine"`
	Rounds int    `json:"rounds"`
	Conns  int    `json:"conns"`
	// MidRoundCrashes counts rounds whose crash interrupted the workload
	// (the rest crashed post-workload, at a quiescent point).
	MidRoundCrashes int `json:"mid_round_crashes"`
	// Batches counts group batches started; MultiConnBatches the subset
	// merging ops from more than one connection — the cross-connection
	// sharing the assertion is about.
	Batches          int `json:"batches"`
	MultiConnBatches int `json:"multi_conn_batches"`
	// ChainCrashes counts crashes injected while reopening a crash image;
	// RecoveryCrashes the subset that interrupted real recovery work.
	ChainCrashes    int `json:"chain_crashes"`
	RecoveryCrashes int `json:"recovery_crashes"`
	// AcksSurvived and AcksLost count acknowledged writes across all rounds
	// by whether recovery exposed their effect. AcksLost counts ops acked
	// AFTER the crash image was captured (their rounds post-date the
	// captured state) — an op acked before the capture that fails to
	// survive fails the round instead.
	AcksSurvived int `json:"acks_survived"`
	AcksLost     int `json:"acks_lost"`
	// AuditViolations counts durability violations (Audit campaigns only;
	// any nonzero count also fails the offending round).
	AuditViolations uint64 `json:"audit_violations,omitempty"`
	// FlightRounds counts rounds whose recovered flight recorder held
	// records; FlightInFlight the subset whose report named a batch that
	// had started but not committed at the crash. Every round also asserts
	// the recorder's claims against ground truth (see groupRound).
	FlightRounds   int `json:"flight_rounds"`
	FlightInFlight int `json:"flight_in_flight_rounds"`
}

// GroupEngineNames lists the variants the group-commit campaign drives.
func GroupEngineNames() []string { return BatchEngineNames() }

// RunGroup executes one group-commit campaign per selected variant,
// returning per-variant reports and the first Failure found (nil when every
// round validates).
func RunGroup(cfg GroupConfig) ([]GroupReport, error) {
	cfg.applyDefaults()
	selected := map[string]bool{}
	all := len(cfg.Engines) == 0
	for _, n := range cfg.Engines {
		if n == "all" {
			all = true
		}
		selected[n] = true
	}
	var reports []GroupReport
	for _, bv := range batchVariants {
		if !all && !selected[bv.name] {
			continue
		}
		rep := GroupReport{Engine: bv.name, Conns: cfg.Conns}
		rng := rand.New(rand.NewSource(engineSeed(cfg.Seed, "group-"+bv.name)))
		for round := 0; round < cfg.Rounds; round++ {
			roundSeed := rng.Int63()
			if err := groupRound(cfg, bv.v, round, roundSeed, &rep); err != nil {
				if f, ok := err.(*Failure); ok {
					f.Engine = bv.name
					f.Round = round
					f.CampaignSeed = cfg.Seed
					f.RoundSeed = roundSeed
					f.Threads = cfg.Conns
				}
				return append(reports, rep), err
			}
			rep.Rounds++
		}
		// Non-vacuity: a healthy campaign recovers flight data nearly every
		// round (any round with an acked batch has at minimum its start
		// record). All-empty rings mean the blackbox check tested nothing.
		if rep.Rounds >= 25 && rep.FlightRounds == 0 {
			return append(reports, rep), fmt.Errorf(
				"crashtest: %s: %d rounds recovered no flight-recorder data — blackbox assertions are vacuous",
				bv.name, rep.Rounds)
		}
		reports = append(reports, rep)
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("crashtest: no group variant matches %v (known: %v)",
			cfg.Engines, GroupEngineNames())
	}
	if r := cfg.Metrics; r != nil {
		for _, rep := range reports {
			r.Counter("group_crash_rounds_total").Add(uint64(rep.Rounds))
			r.Counter("group_crash_batch_total").Add(uint64(rep.Batches))
			r.Counter("group_crash_multiconn_batch_total").Add(uint64(rep.MultiConnBatches))
			r.Counter("group_crash_chain_total").Add(uint64(rep.ChainCrashes))
			r.Counter("group_crash_ack_survived_total").Add(uint64(rep.AcksSurvived))
			r.Counter("group_crash_ack_lost_total").Add(uint64(rep.AcksLost))
			r.Counter("group_crash_flight_rounds_total").Add(uint64(rep.FlightRounds))
			r.Counter("group_crash_flight_inflight_total").Add(uint64(rep.FlightInFlight))
		}
	}
	return reports, nil
}

// groupConn records one simulated connection's acknowledged writes. Op i
// (1-based) stores the decimal value i into the connection's key, so the
// recovered value equals the connection's surviving ack count.
type groupConn struct {
	seqs        []uint64 // seqs[i-1] is the group batch that committed op i
	mustSurvive int      // ops acked strictly before the crash fired
	err         error
}

func groupOpts(v core.Variant) shard.Options {
	return shard.Options{
		Shards:     1,
		RegionSize: 256 << 10,
		CoordSize:  32 << 10,
		Variant:    v,
		// Every round also tortures the flight recorder: batch records are
		// appended through the same crash scheduler as the data they
		// describe, and the recovered report is checked against ground
		// truth below.
		Blackbox: true,
	}
}

func groupRound(cfg GroupConfig, v core.Variant, round int, roundSeed int64, rep *GroupReport) error {
	rrng := rand.New(rand.NewSource(roundSeed))
	st, err := shard.Open(groupOpts(v))
	if err != nil {
		return fmt.Errorf("building fresh %s store: %w", v, err)
	}
	devs := st.Devices()
	shardDev, coordDev := devs[0], devs[1]

	ra := &roundAudit{enabled: cfg.Audit}
	sched := pmem.NewScheduler(shardDev)
	sched.SetBudget(cfg.ChainDepth)
	aud, trig := ra.attach(shardDev, sched)
	if aud != nil {
		st.SetAuditors([]ptm.Auditor{aud, nil})
	}
	policy := randPolicy(rrng)
	crashAt := uint64(1 + rrng.Intn(cfg.Conns*cfg.OpsPerConn*16+64))
	sched.Arm(crashAt, policy)

	// The committer under test: small batches, sometimes a linger window, and
	// an OnBatch probe recording batch formation for the report.
	var bmu sync.Mutex
	lingers := []time.Duration{0, 200 * time.Microsecond, time.Millisecond}
	cm := server.NewCommitter(st, server.GroupOptions{
		MaxBatch: cfg.MaxBatch,
		Linger:   lingers[rrng.Intn(len(lingers))],
		OnBatch: func(_ int, _ uint64, ops []*server.Pending) {
			conns := map[any]struct{}{}
			for _, p := range ops {
				conns[p.Tag()] = struct{}{}
			}
			bmu.Lock()
			rep.Batches++
			if len(conns) > 1 {
				rep.MultiConnBatches++
			}
			bmu.Unlock()
		},
	})

	conns := make([]*groupConn, cfg.Conns)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Conns; w++ {
		w := w
		gc := &groupConn{}
		conns[w] = gc
		wrng := rand.New(rand.NewSource(roundSeed ^ int64(uint64(w+1)*0x9E3779B97F4A7C15)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := []byte(fmt.Sprintf("conn%02d", w))
			nOps := 1 + wrng.Intn(cfg.OpsPerConn)
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
			return fmt.Errorf("%s group workload: %w", v, gc.err)
		}
	}

	img, ev := sched.Image()
	if img != nil {
		rep.MidRoundCrashes++
	} else {
		img = sched.CaptureNow(policy)
		ev = sched.Events()
	}
	trig.finish(img)
	sched.Detach()
	// The coordinator is quiescent (group commit is single-shard by
	// construction); its captured image is simply its persisted state.
	coordImg := coordDev.CrashImage(policy)
	accumDevice(cfg.Metrics, shardDev)
	accumDevice(cfg.Metrics, coordDev)
	chain := []CrashPoint{{Event: ev}}

	// Crash chain: reopen each shard image (with a fresh coordinator device
	// from the quiescent image) under a freshly armed scheduler; a crash
	// during Reopen makes the partially recovered image the next link.
	var final *shard.Store
	for {
		sdev := pmem.FromImage(img, pmem.ModelDRAM)
		cdev := pmem.FromImage(coordImg, pmem.ModelDRAM)
		pending := core.RecoveryPending(img)
		s2 := pmem.NewScheduler(sdev)
		s2.SetBudget(1)
		if len(chain) < cfg.ChainDepth {
			// Only the shard device is scheduled, so only its events count.
			armInsideReopen(rrng, [][]byte{img}, func(d []*pmem.Device) {
				c := pmem.FromImage(coordImg, pmem.ModelDRAM)
				_, _ = shard.Reopen([]*pmem.Device{d[0], c}, groupOpts(v)) // rehearsal; the Reopen below reports errors
			}, s2.Arm)
		}
		a2, trig2 := ra.attach(sdev, s2)
		ropts := groupOpts(v)
		if a2 != nil {
			ropts.Auditors = []ptm.Auditor{a2, nil}
		}
		st2, err := shard.Reopen([]*pmem.Device{sdev, cdev}, ropts)
		if s2.Captured() {
			img2, ev2 := s2.Image()
			trig2.finish(img2)
			s2.Detach()
			accumDevice(cfg.Metrics, sdev)
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
			sdev.SetHooks(a2.Hooks())
		}
		final = st2
		break
	}

	// Validate: per-connection recovered counts, then batch atomicity and
	// commit-order durability across connections.
	recovered := make([]int, cfg.Conns)
	for w := range conns {
		v, err := final.Get([]byte(fmt.Sprintf("conn%02d", w)))
		switch {
		case errors.Is(err, shard.ErrNotFound):
		case err != nil:
			return &Failure{Chain: chain, Reason: fmt.Sprintf("reading conn %d key: %v", w, err)}
		default:
			n, perr := strconv.Atoi(string(v))
			if perr != nil {
				return &Failure{Chain: chain, Reason: fmt.Sprintf("conn %d key holds %q, not a counter", w, v)}
			}
			recovered[w] = n
		}
	}
	var survivedMax, maxAcked uint64
	lostMin := ^uint64(0)
	for w, gc := range conns {
		r := recovered[w]
		if r < gc.mustSurvive || r > len(gc.seqs) {
			return &Failure{Chain: chain, Reason: fmt.Sprintf(
				"conn %d: recovered count %d outside acknowledged range [%d,%d] — an acked write was lost",
				w, r, gc.mustSurvive, len(gc.seqs))}
		}
		rep.AcksSurvived += r
		rep.AcksLost += len(gc.seqs) - r
		for i, seq := range gc.seqs {
			if i < r {
				if seq > survivedMax {
					survivedMax = seq
				}
			} else if seq < lostMin {
				lostMin = seq
			}
			if i < gc.mustSurvive && seq > maxAcked {
				maxAcked = seq
			}
		}
	}
	// All-or-nothing per group batch, durable in batch commit order: every
	// surviving op's batch must precede every lost op's batch. A split batch
	// (same seq on both sides) or a hole (later batch durable, earlier lost)
	// both trip this.
	if survivedMax >= lostMin {
		return &Failure{Chain: chain, Reason: fmt.Sprintf(
			"group batch atomicity violated: batch %d (or earlier) lost while batch %d survived",
			lostMin, survivedMax)}
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
		return &Failure{Chain: chain, Reason: "blackbox store reopened without a flight report"}
	}
	if maxAcked > 0 {
		if fr.Empty() {
			return &Failure{Chain: chain, Reason: fmt.Sprintf(
				"flight recorder empty though batch %d was acked before the crash", maxAcked)}
		}
		if fr.MaxBatchStarted < maxAcked {
			return &Failure{Chain: chain, Reason: fmt.Sprintf(
				"flight recorder names batch %d as last started, but batch %d was acked before the crash",
				fr.MaxBatchStarted, maxAcked)}
		}
	}
	if lostMin != ^uint64(0) && fr.MaxBatchCommitted >= lostMin {
		return &Failure{Chain: chain, Reason: fmt.Sprintf(
			"flight recorder claims batch %d committed, but batch %d lost acked data",
			fr.MaxBatchCommitted, lostMin)}
	}
	if !fr.Empty() {
		rep.FlightRounds++
		if len(fr.InFlight) > 0 {
			rep.FlightInFlight++
		}
	}

	// The recovered store must keep serving the group-commit path.
	cm2 := server.NewCommitter(final, server.GroupOptions{MaxBatch: cfg.MaxBatch})
	probe := cm2.Submit(0, 1, "probe", nil, func(tx ptm.Tx, db *kvstore.DB) (string, error) {
		if err := db.PutTx(tx, []byte("probe"), []byte(strconv.Itoa(round))); err != nil {
			return "", err
		}
		return "OK", nil
	})
	if reply := probe.Wait(); reply != "OK" {
		cm2.Close()
		return &Failure{Chain: chain, Reason: fmt.Sprintf("post-recovery group commit failed: %q", reply)}
	}
	cm2.Close()
	if v, err := final.Get([]byte("probe")); err != nil || string(v) != strconv.Itoa(round) {
		return &Failure{Chain: chain, Reason: fmt.Sprintf("post-recovery group write not readable: %q err=%v", v, err)}
	}

	if cfg.Audit {
		if err := final.Close(); err != nil {
			return &Failure{Chain: chain, Reason: fmt.Sprintf("close after recovery: %v", err)}
		}
		for _, d := range final.Devices() {
			accumDevice(cfg.Metrics, d)
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
