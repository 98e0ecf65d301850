package pmem

import (
	"sync"
	"sync/atomic"
)

// Scheduler is a deterministic crash-point scheduler for fault-injection
// campaigns over one or more Devices that together form one logical store —
// a lone engine's device, or one device per shard plus a coordinator log.
// It counts every persistence event (store, pwb, pfence/psync) on every
// member with ONE atomic counter. When armed, it captures a crash image of
// EVERY member — the media contents a whole-process power failure at that
// exact event would leave behind — at the first event at or past the armed
// target, without disturbing the running workload.
//
// Crash-point numbering: event indices form one global sequence over all
// three event types and all members, in program order on the mutating
// goroutine. Every store counts as one event (a StoreBytes or CopyWithin of
// any length is ONE store), every Pwb as one (a PwbRange of k lines is k
// events), and every Pfence or Psync as one. The first event after attach
// has index 1, and Arm targets are absolute positions in this sequence
// relative to the current count: Arm(1, p) captures at the very next event
// on any member. Because the transactional layers serialize mutators, the
// numbering is deterministic for a deterministic single-threaded workload —
// the property crash-chain campaigns rely on to replay a failure from its
// recorded event index.
//
// Capturing instead of halting lets a single pass enumerate crash points:
// the workload runs to completion, and recovery is exercised separately on
// each captured image set. Re-arming a fresh Scheduler on devices built from
// captured images *before* opening them lands the next crash inside the
// recovery (or format) code — chaining crash → partial recovery → crash, as
// deep as the crash budget allows.
//
// The Scheduler is goroutine-safe on the control plane: Arm, Disarm,
// Captured, Images and Events may be called from a harness goroutine while
// worker goroutines drive the devices. The capture itself runs on the
// mutating goroutine, inside the persistence primitive that triggered it,
// so with one member it never races with the (single) mutator. Members
// other than the triggering device are read at that moment, so with several
// members the harness must ensure no other goroutine is mid-mutation on
// them at capture time: drive the workload single-threaded (the cross-shard
// campaigns do) or quiesce other mutators first.
type Scheduler struct {
	devs  []*Device
	hooks []*Hooks // per-member counting bundles, immutable after NewScheduler

	events atomic.Uint64 // persistence events observed since attach
	armed  atomic.Bool   // fast path: is a capture pending?

	mu       sync.Mutex // guards everything below
	target   uint64     // absolute event index to crash at
	policy   CrashPolicy
	imgs     [][]byte // captured images, nil until the crash fires
	imgEvent uint64   // event index the images were captured at
	crashes  int      // captures taken so far
	budget   int      // max captures; 0 means unlimited
}

// NewScheduler attaches a scheduler to devs, replacing any hook bundle
// previously installed on them. The scheduler starts disarmed: events are
// counted but no crash is pending until Arm. A harness that composes other
// observers around the scheduler reinstalls its own bundle per member with
// SetHooks(ChainHooks(..., s.Hooks(i), ...)).
func NewScheduler(devs ...*Device) *Scheduler {
	if len(devs) == 0 {
		panic("pmem: Scheduler needs at least one device")
	}
	s := &Scheduler{devs: devs, hooks: make([]*Hooks, len(devs))}
	n := func(uint64) { s.tick() }
	for i, d := range devs {
		s.hooks[i] = &Hooks{Store: n, Pwb: n, Fence: func() { s.tick() }}
		d.SetHooks(s.hooks[i])
	}
	return s
}

// Hooks returns member i's counting bundle for composition via ChainHooks.
func (s *Scheduler) Hooks(i int) *Hooks { return s.hooks[i] }

// Detach removes all hooks from every member (including any composition a
// harness installed around this scheduler's bundles). Events stop counting;
// a pending arm never fires.
func (s *Scheduler) Detach() {
	s.armed.Store(false)
	for _, d := range s.devs {
		d.SetHooks(nil)
	}
}

// SetBudget bounds the total number of captures (Arm + CaptureNow) this
// scheduler may take; 0 means unlimited. The budget is what keeps a crash
// chain finite.
func (s *Scheduler) SetBudget(n int) {
	s.mu.Lock()
	s.budget = n
	s.mu.Unlock()
}

// Arm schedules an all-member capture at the eventsFromNow-th persistence
// event from now (1 means the very next event on any member) under the
// given policy, clearing any previously captured images. It reports false
// if the crash budget is exhausted, in which case nothing is armed.
func (s *Scheduler) Arm(eventsFromNow uint64, policy CrashPolicy) bool {
	if eventsFromNow == 0 {
		eventsFromNow = 1
	}
	s.mu.Lock()
	if s.budget > 0 && s.crashes >= s.budget {
		s.mu.Unlock()
		return false
	}
	s.imgs = nil
	s.imgEvent = 0
	s.policy = policy
	s.target = s.events.Load() + eventsFromNow
	s.mu.Unlock()
	s.armed.Store(true)
	return true
}

// Disarm cancels a pending crash without detaching the hooks. Any already
// captured images are kept.
func (s *Scheduler) Disarm() { s.armed.Store(false) }

// tick is the shared hook body: count the event and, if the armed target
// has been reached, capture every member's crash image. Runs on the
// mutating goroutine.
func (s *Scheduler) tick() {
	n := s.events.Add(1)
	if !s.armed.Load() {
		return
	}
	s.mu.Lock()
	if s.armed.Load() && s.imgs == nil && n >= s.target {
		s.capture(s.policy, n)
	}
	s.mu.Unlock()
}

// capture snapshots every member under policy at event index ev; caller
// holds s.mu.
func (s *Scheduler) capture(policy CrashPolicy, ev uint64) {
	imgs := make([][]byte, len(s.devs))
	for i, d := range s.devs {
		imgs[i] = d.CrashImage(policy)
	}
	s.imgs = imgs
	s.imgEvent = ev
	s.crashes++
	s.armed.Store(false)
}

// CaptureNow takes an immediate all-member capture under policy (for
// post-workload quiescent crashes), counting it against the budget. It
// returns nil if the budget is exhausted. Call only from the harness at a
// quiescent point, or from a hook on the mutating goroutine.
func (s *Scheduler) CaptureNow(policy CrashPolicy) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget > 0 && s.crashes >= s.budget {
		return nil
	}
	s.capture(policy, s.events.Load())
	return s.imgs
}

// Captured reports whether an armed crash has fired since the last Arm.
func (s *Scheduler) Captured() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.imgs != nil
}

// Images returns the captured per-member crash images (index-aligned with
// the devices passed to NewScheduler) and the event index they were taken
// at, or nil and 0 if no crash has fired since the last Arm.
func (s *Scheduler) Images() ([][]byte, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.imgs, s.imgEvent
}

// Events returns the number of persistence events observed across all
// members since attach.
func (s *Scheduler) Events() uint64 { return s.events.Load() }

// Crashes returns the number of captures taken so far.
func (s *Scheduler) Crashes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashes
}
