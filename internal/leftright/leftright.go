// Package leftright implements the Left-Right universal construct
// (Ramalhete & Correia) adapted for RomulusLR (§5.3 of the paper). It gives
// read operations wait-free population-oblivious progress: a reader arrives
// on the current version's read indicator, observes which of the two
// instances to read, reads, and departs — it never waits for any other
// thread. The single writer (serialized externally, by flat combining in
// RomulusLR) toggles the instance pointer and waits for readers to drain
// off the instance it is about to modify. A reader needs no thread ID: it
// arrives on whichever stripe of the version's hsync.ReadIndicator it
// borrows, and departs from the same one.
//
// In RomulusLR the two "instances" are the main and back persistent
// regions; readers directed at back use synthetic pointers (an offset added
// at every load). This package only manages the control variables; the
// engine maps instances to regions.
package leftright

import "repro/internal/hsync"

// Instance identifies which of the two data instances readers should use.
type Instance int32

// The two instances. For RomulusLR, Main is the region user code mutates
// and Back is the twin copy readable through synthetic pointers.
const (
	Main Instance = 0
	Back Instance = 1
)

// LR holds the Left-Right control state: the instance pointer, the version
// index, and one read indicator per version. The zero value directs readers
// at Main with version 0 and is ready to use.
type LR struct {
	leftRight    atomicInstance
	versionIndex atomicInstance // reused 0/1 type for the version too
	readers      [2]hsync.ReadIndicator
}

// Reader is an arrived reader's place: the version's read indicator and the
// stripe it arrived on. Arrive returns it; Depart takes it back.
type Reader struct {
	ri *hsync.ReadIndicator
	s  *hsync.Stripe
}

// Arrive registers a reader and returns the Reader to pass to Depart.
// Wait-free: a load, a stripe from the indicator's pool and one atomic
// increment.
func (lr *LR) Arrive() Reader {
	ri := &lr.readers[lr.versionIndex.Load()]
	return Reader{ri, ri.Arrive()}
}

// Depart deregisters reader r.
func (lr *LR) Depart(r Reader) {
	r.ri.Depart(r.s)
}

// Read returns the instance the reader should use. Must be called after
// Arrive.
func (lr *LR) Read() Instance {
	return lr.leftRight.Load()
}

// Toggle directs new readers at instance to and then waits until no reader
// can still be observing the other instance, using the classic Left-Right
// double version-toggle. On return the caller may safely modify the
// instance readers were diverted away from. Only the (single) writer may
// call it.
func (lr *LR) Toggle(to Instance) {
	lr.leftRight.Store(to)
	prev := lr.versionIndex.Load()
	next := 1 - prev
	// Wait for stragglers on the version we are about to expose, then
	// switch versions and wait for readers still on the old version. After
	// both waits, every active reader arrived after the instance switch and
	// is therefore on instance `to`.
	lr.readers[next].WaitEmpty()
	lr.versionIndex.Store(next)
	lr.readers[prev].WaitEmpty()
}
