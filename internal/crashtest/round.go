package crashtest

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"repro/internal/audit"
	"repro/internal/obs"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// round is the driver's side of one build / crash / recover / validate
// cycle: the seeded stream the scenario draws from, the census it reports
// into, and the state the shared phases hand each other.
type round struct {
	cfg     Config // sizing fields resolved
	subject string
	n       int   // round index within the campaign
	seed    int64 // seeds rng; recorded in a Failure
	workers int
	// rng is the round's stream. The ORDER a scenario draws from it — crash
	// policy, crash target, rehearsal offsets — is what a seed replays; do
	// not reorder draws.
	rng *rand.Rand
	rep *Report

	auds  []*audit.Auditor // every auditor the round attached, for the verdict
	chain []CrashPoint
	// final and finalDevs are what reopenChain recovered: closed (the last
	// durability claim an audited round checks) and accounted by run.
	final     io.Closer
	finalDevs []*pmem.Device
}

// run executes the scenario's round, then the tail every scenario shares.
func (r *round) run(sc *scenario) error {
	if err := sc.round(r); err != nil {
		return err
	}
	if r.cfg.Audit && r.final != nil {
		if err := r.final.Close(); err != nil {
			return r.fail("close after recovery: %v", err)
		}
	}
	// Covers recovery work, the scenario's validation and probe writes, and
	// the close above.
	for _, d := range r.finalDevs {
		accumDevice(r.cfg.Metrics, d)
	}
	return r.auditVerdict()
}

// fail builds the round's Failure; runCampaign fills in where it happened.
func (r *round) fail(format string, args ...any) error {
	return &Failure{Chain: r.chain, Reason: fmt.Sprintf(format, args...)}
}

// workerRand derives worker w's private stream from the round seed.
func (r *round) workerRand(w int) *rand.Rand {
	return rand.New(rand.NewSource(r.seed ^ int64(uint64(w+1)*0x9E3779B97F4A7C15)))
}

func randPolicy(rng *rand.Rand) pmem.CrashPolicy {
	return pmem.CrashPolicy{
		QueuedPersistProb: rng.Float64(),
		EvictDirtyProb:    rng.Float64() * 0.5,
		TearWords:         rng.Intn(2) == 0,
		Rand:              rand.New(rand.NewSource(rng.Int63())),
	}
}

// site is one link of a round's crash chain: a crash scheduler over the
// leading devices of a system, with the round's auditors chained around it.
// Trailing devices are carried: quiescent by the scenario's construction
// (the group subjects' coordinator log), they are neither scheduled nor
// audited, and their crash image is simply their persisted state.
type site struct {
	*pmem.Scheduler
	devs []*pmem.Device
	// auds has one entry per device for the engines' Open/SetAuditor, an
	// untyped nil wherever nothing is attached (carried devices, or
	// Config.Audit off).
	auds  []ptm.Auditor
	trigs []*forensicTrigger
}

// schedule puts devs[:nsched] under a new scheduler allowed budget captures.
// With Config.Audit each scheduled device's hook chain becomes auditor →
// scheduler → forensic trigger: the auditor's shadow must be current when the
// scheduler captures, and the trigger must see the capture at the very next
// fence.
func (r *round) schedule(budget int, devs []*pmem.Device, nsched int) *site {
	s := &site{Scheduler: pmem.NewScheduler(devs[:nsched]...), devs: devs, auds: make([]ptm.Auditor, len(devs))}
	s.SetBudget(budget)
	if !r.cfg.Audit {
		return s
	}
	for i, d := range devs[:nsched] {
		a := audit.New(d)
		trig := &forensicTrigger{sched: s.Scheduler, member: i, aud: a}
		d.SetHooks(pmem.ChainHooks(a.Hooks(), s.Hooks(i), &pmem.Hooks{Fence: trig.onFence}))
		r.auds = append(r.auds, a)
		s.auds[i] = a
		s.trigs = append(s.trigs, trig)
	}
	return s
}

// audit attaches a bare auditor (no crash scheduler) to dev, for the fault
// scenario's at-rest phases. It returns an untyped nil with Config.Audit off.
func (r *round) audit(dev *pmem.Device) ptm.Auditor {
	if !r.cfg.Audit {
		return nil
	}
	a := audit.New(dev)
	a.Attach()
	r.auds = append(r.auds, a)
	return a
}

// crashed closes a site whose scheduler captured imgs: the forensic diff for
// captures no fence followed (a quiescent CaptureNow, or a crash landing on
// the last store), hooks off, every device's lifetime statistics accounted.
func (s *site) crashed(r *round, imgs [][]byte) {
	for _, t := range s.trigs {
		t.check(imgs)
	}
	s.Detach()
	for _, d := range s.devs {
		accumDevice(r.cfg.Metrics, d)
	}
}

// capture ends a round's workload phase and starts its chain: the armed
// crash's images if it fired mid-workload (counted under the scenario's mid
// counter), else a quiescent post-workload crash under policy; plus each
// carried device's image under the same policy.
func (r *round) capture(s *site, policy pmem.CrashPolicy, mid string) [][]byte {
	imgs, ev := s.Images()
	if imgs != nil {
		r.rep.add(mid, 1)
	} else {
		imgs = s.CaptureNow(policy)
		ev = s.Events()
	}
	r.chain = []CrashPoint{{Event: ev}}
	s.crashed(r, imgs)
	for _, d := range s.devs[len(imgs):] {
		imgs = append(imgs, d.CrashImage(policy))
	}
	return imgs
}

// reopenChain is the crash chain. Each link rebuilds devices from the current
// image set, puts the first nsched of them under a fresh one-capture
// scheduler armed inside the reopen (while the chain is shorter than
// Config.ChainDepth), and calls open — the scenario's recovery path, handed
// one auditor slot per device. If the crash fires during open the partially
// recovered images become the next link (carried images pass through
// unchanged); otherwise open's result is the round's recovered system.
// pending reports whether an image set needs real recovery work, which is
// what tells a crash inside recovery from one inside a no-op reopen.
func reopenChain[T io.Closer](r *round, imgs [][]byte, nsched int,
	open func(devs []*pmem.Device, auds []ptm.Auditor) (T, error),
	pending func(imgs [][]byte) bool) (T, error) {
	var none T
	for {
		devs := fromImages(imgs)
		recovering := pending(imgs)
		s := r.schedule(1, devs, nsched)
		if len(r.chain) < r.cfg.ChainDepth {
			// Arm the crash inside the reopen. How many persistence events a
			// recovery issues depends on what the crash damaged — a dozen for a
			// diff-copy repair of a few lines, hundreds for a log replay — so a
			// fixed arming range mostly overshoots the short ones. The reopen is
			// first rehearsed on throwaway devices built from the same images,
			// its events counted, and the crash armed uniformly within that
			// count; a reopen that issues no events has nothing to crash into
			// and stays unarmed.
			trial := fromImages(imgs)
			count := pmem.NewScheduler(trial[:nsched]...)
			_, _ = open(trial, make([]ptm.Auditor, len(trial))) // the open below reports errors
			count.Detach()
			if n := count.Events(); n > 0 {
				s.Arm(uint64(1+r.rng.Intn(int(n))), randPolicy(r.rng))
			}
		}
		st, err := open(devs, s.auds)
		if next, ev := s.Images(); next != nil {
			// Chain-crashed reopens keep their auditors in the round's pool: a
			// violation detected before the capture fired is still one.
			s.crashed(r, next)
			imgs = append(next, imgs[nsched:]...)
			r.rep.add("chain", 1)
			if recovering {
				r.rep.add("recovery_crash", 1)
			}
			r.chain = append(r.chain, CrashPoint{Event: ev, DuringOpen: true, RecoveryPending: recovering})
			continue
		}
		s.Detach()
		if err != nil {
			return none, r.fail("reopen failed: %v", err)
		}
		// Detach cleared the composed bundles; reinstall the auditors alone so
		// the scenario's validation, probe writes and close stay audited.
		for _, t := range s.trigs {
			t.aud.Attach()
		}
		r.final, r.finalDevs = st, devs
		return st, nil
	}
}

func fromImages(imgs [][]byte) []*pmem.Device {
	devs := make([]*pmem.Device, len(imgs))
	for i, img := range imgs {
		devs[i] = pmem.FromImage(img, pmem.ModelDRAM)
	}
	return devs
}

// forensicTrigger snapshots an auditor's crash forensics at the moment the
// scheduler captures. It rides as the last bundle in a member's hook chain:
// the auditor's shadow is already current and the scheduler has just (maybe)
// captured, so checking at each fence diffs the views at the failure point,
// before any later durable point can move the claim line.
type forensicTrigger struct {
	sched  *pmem.Scheduler
	member int // index of the audited device among the scheduler's
	aud    *audit.Auditor
	once   sync.Once
}

func (f *forensicTrigger) onFence() {
	imgs, _ := f.sched.Images()
	f.check(imgs)
}

// check runs the forensic diff against the member's captured image, once.
func (f *forensicTrigger) check(imgs [][]byte) {
	if imgs != nil {
		f.once.Do(func() { f.aud.Forensics(imgs[f.member]) })
	}
}

// accumDevice folds one device's lifetime statistics into the campaign
// registry. Crash-test devices live for a fraction of a round, so campaign
// totals must be accumulated device by device rather than collected from a
// live device at snapshot time.
func accumDevice(reg *obs.Registry, dev *pmem.Device) {
	if reg == nil {
		return
	}
	s := dev.Stats()
	reg.Counter("pmem_store_total").Add(s.Stores)
	reg.Counter("pmem_store_bytes_total").Add(s.BytesStored)
	reg.Counter("pmem_pwb_total").Add(s.Pwbs)
	reg.Counter("pmem_pfence_total").Add(s.Pfences)
	reg.Counter("pmem_psync_total").Add(s.Psyncs)
	reg.Counter("pmem_fence_total").Add(s.Pfences + s.Psyncs)
	reg.Counter("pmem_line_persisted_total").Add(s.LinesPersisted)
	reg.Counter("pmem_persisted_bytes_total").Add(s.BytesPersisted)
}

// auditVerdict folds every auditor the round attached — workload, chained
// recoveries, validation and close — into the report and registry, and fails
// the round on any durability violation.
func (r *round) auditVerdict() error {
	var total uint64
	var first *audit.Violation
	for _, a := range r.auds {
		t := a.Totals()
		w := &r.rep.AuditWaste
		w.PwbClean += t.PwbClean
		w.PwbRequeued += t.PwbRequeued
		w.StoreQueued += t.StoreQueued
		w.FenceNoop += t.FenceNoop
		if reg := r.cfg.Metrics; reg != nil {
			reg.Counter("audit_pwb_clean_total").Add(t.PwbClean)
			reg.Counter("audit_pwb_requeued_total").Add(t.PwbRequeued)
			reg.Counter("audit_store_queued_total").Add(t.StoreQueued)
			reg.Counter("audit_fence_noop_total").Add(t.FenceNoop)
			reg.Counter("audit_durable_check_total").Add(t.DurableChecks)
			reg.Counter("audit_violation_total").Add(t.Violations)
		}
		total += a.ViolationCount()
		if vs := a.Violations(); first == nil && len(vs) > 0 {
			first = &vs[0]
		}
	}
	if total == 0 {
		return nil
	}
	r.rep.AuditViolations += total
	reason := fmt.Sprintf("auditor: %d durability violation(s)", total)
	if v := first; v != nil {
		reason += fmt.Sprintf("; first: [%s] at %s: line %d off %d state=%s seq=%d engine=%s tx=%s site=%s",
			v.Kind, v.Point, v.Line, v.Off, v.State, v.Seq, v.Engine, v.TxKind, v.Site)
	}
	return r.fail("%s", reason)
}
