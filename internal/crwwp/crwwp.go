// Package crwwp implements the C-RW-WP reader-writer lock of Calciu et al.
// as used by Romulus (§5.2 of the paper): writer preference, with a
// distributed read indicator (hsync.ReadIndicator) whose stripes span two
// cache lines to avoid false sharing. Readers pay one store to arrive and
// one to depart, on a stripe they borrow per acquisition; the writer raises
// a flag and waits for the indicator to drain.
//
// In Romulus the writer side is the flat-combining combiner, which already
// holds the combiner spin lock; this package therefore exposes the writer
// flag and reader drain separately (WriterArrive/WriterDepart) instead of
// embedding its own mutual-exclusion lock. The engine departs at a round's
// durable point, while the combiner still holds its lock to replicate, so
// readers run on the final main copy during replication. All state is
// volatile: locks need no persistence for correct recovery.
package crwwp

import (
	"runtime"
	"sync/atomic"

	"repro/internal/hsync"
)

// Lock is a C-RW-WP reader-writer lock. The zero value is ready to use.
// A reader holds the read-indicator stripe SharedLock returned until
// SharedUnlock; the writer side is whichever writer leads the flat
// combiner's round.
type Lock struct {
	writerPresent atomic.Bool
	readers       hsync.ReadIndicator
}

// SharedLock acquires the lock in shared mode and returns the stripe to
// pass to SharedUnlock. Writer preference: if a writer is present or
// arrives concurrently, the reader backs off and retries, so writers cannot
// be starved by a stream of readers.
func (l *Lock) SharedLock() *hsync.Stripe {
	for {
		s := l.readers.Arrive()
		if !l.writerPresent.Load() {
			return s
		}
		l.readers.Depart(s)
		for spins := 0; l.writerPresent.Load(); spins++ {
			if spins > 16 {
				runtime.Gosched()
			}
		}
	}
}

// SharedUnlock releases the shared acquisition that returned s.
func (l *Lock) SharedUnlock(s *hsync.Stripe) {
	l.readers.Depart(s)
}

// WriterArrive announces exclusive intent and waits until all readers have
// departed. The caller must already hold whatever lock serializes writers
// (in Romulus, the flat-combining spin lock).
func (l *Lock) WriterArrive() {
	l.writerPresent.Store(true)
	l.readers.WaitEmpty()
}

// WriterDepart ends the exclusive section, letting blocked readers in.
func (l *Lock) WriterDepart() {
	l.writerPresent.Store(false)
}
