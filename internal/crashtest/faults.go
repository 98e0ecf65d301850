package crashtest

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// The faults scenario: where the crash scenario asks "does a power failure
// lose acknowledged data?", this one asks "does DAMAGED media get served as
// if it were good?". Each round chains the three media failure modes through
// one engine, single-threaded:
//
//	crash with torn writes -> recover -> validate a committed prefix
//	bit rot at rest        -> reopen  -> typed refusal OR exact data
//	sticky/transient lines -> read    -> typed error OR correct data
//
// The invariant under test is the asymmetric one from the durability
// contract: losing data at a crash and SAYING so is acceptable (that is
// what typed corruption errors and shard quarantine are for); serving
// wrong bytes as if they were acknowledged state is never acceptable. A
// round fails on any silent divergence, any untyped error, and any
// durability violation the auditor records along the way. Recovery is not
// crashed again here (no chain): the reopens are where the damage is read.
var faultsScenario = &scenario{
	name:     "faults",
	defaults: Config{Ops: 10, Keys: 48},
	subjects: targetNames(),
	metric:   "fault_",
	// rot_detected: rot reopens refused with a typed corruption error
	// (lost-and-reported); rot_benign: reopens that succeeded and then
	// validated bit-exact (the rot landed in dead or reconstructible bytes) —
	// every other outcome of a rot reopen is a Failure. trip: media-fault
	// trips across the round's devices. transient_retry: probe attempts
	// beyond the first needed to read through transient faults.
	census: []string{"torn_crash", "rot_detected", "rot_benign", "trip", "transient_retry"},
	round:  faultsRound,
}

// typedCorrupt reports whether err is one of the typed refusals an engine
// is allowed — required — to answer damaged media with.
func typedCorrupt(err error) bool {
	return errors.Is(err, ptm.ErrCorruptHeader) ||
		errors.Is(err, ptm.ErrCorruptLog) ||
		errors.Is(err, ptm.ErrCorruptPayload) ||
		errors.Is(err, pmem.ErrMediaFault)
}

// randomOps builds a small deterministic transaction for the fault round's
// single worker.
func randomOps(rng *rand.Rand, keys int) []op {
	ops := make([]op, 1+rng.Intn(4))
	for i := range ops {
		ops[i] = op{
			del: rng.Intn(4) == 0,
			k:   uint64(rng.Intn(keys)),
			v:   rng.Uint64(),
		}
	}
	return ops
}

// exactCheck requires the store to agree with the model bit-for-bit: every
// key present with the exact value, every absent key absent, and the size
// to match. Any divergence on a successfully opened store is the campaign's
// terminal sin — corrupt state served as if it were good.
func exactCheck(st store, model map[uint64]uint64, keys int) error {
	for k := uint64(0); k < uint64(keys); k++ {
		want, ok := model[k]
		got, found, err := st.get(k)
		if err != nil {
			return fmt.Errorf("get key %d: %v", k, err)
		}
		if found != ok || (ok && got != want) {
			return fmt.Errorf("key %d: got (%d, %v), want (%d, %v)", k, got, found, want, ok)
		}
	}
	n, err := st.size()
	if err != nil {
		return fmt.Errorf("size: %v", err)
	}
	if n != len(model) {
		return fmt.Errorf("store has %d pairs, model has %d", n, len(model))
	}
	return nil
}

// rotImage flips nBits random single bits of img within the target's
// detectable ranges (the whole image for twin-copy engines).
func rotImage(rng *rand.Rand, tgt target, img []byte, nBits int) {
	ranges := [][2]int{{0, len(img)}}
	if tgt.rotable != nil {
		ranges = tgt.rotable(len(img))
	}
	total := 0
	for _, r := range ranges {
		total += r[1] - r[0]
	}
	for i := 0; i < nBits; i++ {
		off := rng.Intn(total)
		for _, r := range ranges {
			if off < r[1]-r[0] {
				img[r[0]+off] ^= 1 << rng.Intn(8)
				break
			}
			off -= r[1] - r[0]
		}
	}
}

func faultsRound(r *round) error {
	tgt := targetNamed(r.subject)
	keys := r.cfg.Keys

	// Phase 1: workload with one armed crash under a tearing adversary.
	// Alternate rounds exercise the two tear shapes: an 8-byte-aligned
	// prefix of each dirty line (the paper's atomicity floor) and
	// independent per-word coin flips.
	st, err := tgt.fresh()
	if err != nil {
		return fmt.Errorf("building fresh %s store: %w", tgt.name, err)
	}
	sched := r.schedule(1, []*pmem.Device{st.dev()}, 1)
	st.setAudit(sched.auds[0])
	policy := pmem.CrashPolicy{
		QueuedPersistProb: r.rng.Float64(),
		EvictDirtyProb:    r.rng.Float64() * 0.5,
		TearPrefix:        r.n%2 == 0,
		TearWords:         r.n%2 == 1,
		Rand:              rand.New(rand.NewSource(r.rng.Int63())),
	}
	sched.Arm(uint64(1+r.rng.Intn(r.cfg.Ops*24+32)), policy)

	h := &workerHistory{states: []map[uint64]uint64{{}}}
	for k := uint64(0); k < uint64(keys); k++ {
		h.keys = append(h.keys, k)
	}
	nTx := 1 + r.rng.Intn(r.cfg.Ops)
	for i := 0; i < nTx; i++ {
		ops := randomOps(r.rng, keys)
		if err := st.update(ops); err != nil {
			return fmt.Errorf("%s workload tx %d: %w", tgt.name, i, err)
		}
		next := maps.Clone(h.states[i])
		apply(next, ops)
		h.states = append(h.states, next)
		if !sched.Captured() {
			h.mustSurvive = i + 1
		}
	}
	img := r.capture(sched, policy, "torn_crash")[0]

	// Phase 2: recover the torn image and validate a committed prefix.
	// Tears at crash points respect 8-byte atomicity, the medium the
	// engines are designed for, so recovery must SUCCEED here — typed
	// refusals are for at-rest damage, phases 3 and 4.
	dev2 := pmem.FromImage(img, pmem.ModelDRAM)
	st2, err := tgt.reopen(dev2, r.audit(dev2))
	if err != nil {
		return r.fail("torn-crash reopen failed: %v", err)
	}
	if err := st2.check(); err != nil {
		return r.fail("%v", err)
	}
	k, ok := matchPrefix(st2, h)
	if !ok {
		return r.fail("recovered keys match no committed prefix in [%d,%d]", h.mustSurvive, len(h.states)-1)
	}
	model := maps.Clone(h.states[k])
	// The recovered store must keep working; fold a couple more committed
	// transactions into the model so later phases validate fresher state.
	for i := 0; i < 2; i++ {
		ops := randomOps(r.rng, keys)
		if err := st2.update(ops); err != nil {
			return r.fail("post-recovery update: %v", err)
		}
		apply(model, ops)
	}

	// A quiescent, fully persisted image of the recovered state is the
	// substrate for the at-rest phases.
	dev2.PersistAll()
	clean := dev2.Persisted()
	accumDevice(r.cfg.Metrics, dev2)
	if err := st2.Close(); err != nil {
		return r.fail("close after recovery: %v", err)
	}

	// Phase 3: bit rot at rest. Flip a few bits of the clean image within
	// the engine's detectable ranges and reopen. Exactly two outcomes are
	// acceptable: a typed corruption refusal (rot detected, data lost AND
	// reported), or a successful open that then validates bit-exact (rot
	// landed in dead or twin-reconstructible bytes). Opening fine and
	// serving diverged data fails the campaign.
	rot := append([]byte(nil), clean...)
	rotImage(r.rng, tgt, rot, 1+r.rng.Intn(8))
	dev3 := pmem.FromImage(rot, pmem.ModelDRAM)
	st3, err := tgt.reopen(dev3, r.audit(dev3))
	switch {
	case err != nil && typedCorrupt(err):
		r.rep.add("rot_detected", 1)
	case err != nil:
		return r.fail("rot reopen failed with untyped error: %v", err)
	default:
		if err := st3.check(); err != nil {
			return r.fail("rot survived reopen but %v", err)
		}
		if err := exactCheck(st3, model, keys); err != nil {
			return r.fail("corrupt-and-served: rot survived reopen but %v", err)
		}
		r.rep.add("rot_benign", 1)
		if err := st3.Close(); err != nil {
			return r.fail("close after benign rot: %v", err)
		}
		accumDevice(r.cfg.Metrics, dev3)
	}

	// Phase 4: live media faults. Reopen the clean image and mark one user
	// word's cache line bad — in every copy the engine may read — first
	// transient, then sticky. Reads and updates over the bad line must
	// answer the typed pmem.ErrMediaFault (the trip-delta precedence under
	// test: a corrupted load must not be laundered into a plausible engine
	// error or, worse, a clean result). The probe targets a controlled raw
	// offset so no corrupted pointer is ever dereferenced.
	dev4 := pmem.FromImage(clean, pmem.ModelDRAM)
	st4, err := tgt.reopen(dev4, r.audit(dev4))
	if err != nil {
		return r.fail("clean image reopen failed: %v", err)
	}
	p := uint64(64 + 8*r.rng.Intn(64)) // within the root array: always mapped, below the watermark
	expected, err := st4.probe(p)
	if err != nil {
		return r.fail("probe of healthy line: %v", err)
	}

	bases := st4.dataOffsets()
	for _, b := range bases {
		dev4.MarkBad(b+int(p), true)
	}
	served := false
	for attempt := 0; attempt <= len(bases) && !served; attempt++ {
		v, err := st4.probe(p)
		switch {
		case err == nil && v != expected:
			return r.fail("transient fault: read served %#x, want %#x", v, expected)
		case err == nil:
			served = true
		case !errors.Is(err, pmem.ErrMediaFault):
			return r.fail("transient fault: untyped error %v", err)
		default:
			r.rep.add("transient_retry", 1)
		}
	}
	if !served {
		return r.fail("transient fault never cleared across %d retries", len(bases)+1)
	}

	for _, b := range bases {
		dev4.MarkBad(b+int(p), false)
	}
	if v, err := st4.probe(p); err == nil {
		return r.fail("corrupt-and-served: sticky fault read returned %#x with no error", v)
	} else if !errors.Is(err, pmem.ErrMediaFault) {
		return r.fail("sticky fault read: untyped error %v", err)
	}
	if err := st4.probeUpdate(p); err == nil {
		return r.fail("corrupt-and-served: update over a sticky fault committed cleanly")
	} else if !errors.Is(err, pmem.ErrMediaFault) {
		return r.fail("sticky fault update: untyped error %v", err)
	}

	// After the (simulated) media repair the store must be whole: exact
	// state, and still writable.
	r.rep.add("trip", dev4.FaultsTripped())
	dev4.ClearFaults()
	if err := exactCheck(st4, model, keys); err != nil {
		return r.fail("state diverged after fault episode: %v", err)
	}
	ops := randomOps(r.rng, keys)
	if err := st4.update(ops); err != nil {
		return r.fail("update after fault episode: %v", err)
	}
	apply(model, ops)
	if err := exactCheck(st4, model, keys); err != nil {
		return r.fail("post-repair write not readable: %v", err)
	}
	accumDevice(r.cfg.Metrics, dev4)

	// Phase 5: close is the final durability claim; the driver's verdict then
	// fails the round on any violation any of its auditors recorded —
	// workload, torn recovery, rot reopen, or the fault episode.
	if err := st4.Close(); err != nil {
		return r.fail("close after fault episode: %v", err)
	}
	return nil
}
