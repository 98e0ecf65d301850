package pmem

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Media-fault model. Real persistent memory does not only lose un-synced
// lines at a crash: cells rot at rest, and a read of a poisoned line returns
// an uncorrectable media error (on x86, a machine-check the kernel surfaces
// as SIGBUS). This file adds that failure mode to the simulated device:
//
//   - a harness marks chosen cache lines bad (MarkBad) at a quiescent point;
//   - any load touching a bad line "trips": the device counts the trip,
//     records a typed *MediaFaultError, invokes the Fault hook, and returns
//     deliberately corrupted bytes — so an unhardened consumer that ignores
//     the fault surface serves garbage, exactly what the fault campaign's
//     non-vacuity fixture demonstrates;
//   - transient lines self-clear after their first trip (a retry succeeds),
//     sticky lines keep tripping until ClearFaults (a scrub/repair).
//
// Consumers detect faults without threading errors through every Load call:
// snapshot FaultsTripped before an operation and compare after; on a delta,
// FaultError carries the typed error for the most recent trip.
//
// Like the rest of the data path, fault installation is expected at quiescent
// points; the set itself is an atomic pointer (copy-on-write) and per-line
// clears are atomic, so concurrent readers (RomulusLR) may trip safely.

// ErrMediaFault is the typed error for an uncorrectable media read fault.
// Errors returned by FaultError wrap it, so errors.Is works across layers.
var ErrMediaFault = errors.New("pmem: uncorrectable media read fault")

// MediaFaultError is a media read fault at a specific device offset.
type MediaFaultError struct{ off int }

func (e *MediaFaultError) Error() string {
	return fmt.Sprintf("pmem: uncorrectable media read fault at offset %#x", e.off)
}

// Unwrap makes errors.Is(err, ErrMediaFault) true.
func (e *MediaFaultError) Unwrap() error { return ErrMediaFault }

// corruptXor is the pattern XORed into bytes read through a faulted line —
// visibly wrong data rather than zeroes, so silent consumers fail loudly in
// validation harnesses.
const corruptXor = 0xA5

type faultLine struct {
	transient bool
	cleared   atomic.Bool
}

// faultSet is an immutable snapshot of the bad-line map; Device.faults holds
// it behind an atomic pointer so installation never races the data path.
type faultSet struct {
	lines map[int]*faultLine
}

// MarkBad marks the cache line containing off as a media-fault line. A
// transient line clears itself after the first load that trips it (modelling
// a correctable-on-retry error); a sticky line keeps tripping until
// ClearFaults. Call at quiescent points or from a harness goroutine; the set
// installs atomically.
func (d *Device) MarkBad(off int, transient bool) {
	line := off >> lineShift
	next := &faultSet{lines: make(map[int]*faultLine)}
	if old := d.faults.Load(); old != nil {
		for k, v := range old.lines {
			next.lines[k] = v
		}
	}
	next.lines[line] = &faultLine{transient: transient}
	d.faults.Store(next)
}

// ClearFaults removes every marked line — the repair a scrub performs. The
// trip counter and last-error latch are preserved (they are history, not
// state).
func (d *Device) ClearFaults() { d.faults.Store(nil) }

// FaultsTripped returns the number of loads that touched a faulted line
// since the device was created. Consumers snapshot it around an operation;
// a delta means the operation read corrupted data.
func (d *Device) FaultsTripped() uint64 { return d.faultTrips.Load() }

// FaultError returns the typed error for the most recent fault trip, or nil
// if no load has ever tripped. The error wraps ErrMediaFault.
func (d *Device) FaultError() error {
	if e := d.faultLast.Load(); e != nil {
		return e
	}
	return nil
}

// faultCheck reports whether a load of [off, off+n) touches a live faulted
// line, tripping the fault machinery when it does. The caller corrupts the
// returned data on a hit.
func (d *Device) faultCheck(off, n int) bool {
	fs := d.faults.Load()
	if fs == nil {
		return false
	}
	first := off >> lineShift
	last := (off + n - 1) >> lineShift
	hit := false
	for l := first; l <= last; l++ {
		fl, ok := fs.lines[l]
		if !ok || fl.cleared.Load() {
			continue
		}
		hit = true
		if fl.transient {
			fl.cleared.Store(true)
		}
	}
	if hit {
		d.faultTrips.Add(1)
		d.faultLast.Store(&MediaFaultError{off: off})
		if h := d.hooks.Load(); h != nil && h.Fault != nil {
			h.Fault(off)
		}
	}
	return hit
}
