// Package hsync provides the distributed read indicator, with cache-padded
// counter stripes, that the concurrency mechanisms of §5 of the Romulus
// paper share. The paper's C++ code keys a reader's slot by its thread; Go
// has no thread-local storage, and a slot only has to be the one a reader
// departs from, so a reader borrows a stripe per acquisition instead of
// registering an ID.
//
// Everything in this package lives in volatile memory. As the paper notes
// (§5.2), none of the lock state needs to be persistent: correct recovery
// depends only on the persistent state machine, not on who held which lock.
package hsync

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Stripe is one counter of a ReadIndicator. It spans two cache lines (128
// bytes), so readers on different stripes never falsely share a line — the
// layout the paper uses for its C-RW-WP read indicator (§5.2). A reader
// holds the Stripe Arrive returned until it passes it to Depart.
type Stripe struct {
	n atomic.Int64
	_ [120]byte
}

// ReadIndicator is a distributed counter recording the presence of readers.
// A reader arrives on one stripe and departs from the same one. Stripes are
// counters, so readers that share one still count correctly: a stripe only
// spreads readers over cache lines, and no reader needs an ID. Each reader
// takes its stripe from a sync.Pool, which is mostly per-P, so concurrent
// readers on different processors usually touch different lines and no
// shared line is written on the read path. isEmpty scans every stripe: the
// writer-side cost of the reader-side store, the right trade for
// read-mostly workloads. The zero value is ready to use.
type ReadIndicator struct {
	t atomic.Pointer[stripes] // allocated on first Arrive
}

// stripes is a ReadIndicator's counters and the pool readers borrow them
// from. It is allocated apart from the indicator because the runtime holds
// a used sync.Pool until the second collection after its last use: a pool
// embedded in its owner would hold the owner (an engine, and its device)
// that long too.
type stripes struct {
	s      []Stripe
	free   sync.Pool     // *Stripe not held by a reader
	misses atomic.Uint32 // pool misses, spread over s
}

// Arrive marks a reader present and returns the stripe to pass to Depart.
func (r *ReadIndicator) Arrive() *Stripe {
	t := r.t.Load()
	if t == nil {
		t = r.alloc()
	}
	s, _ := t.free.Get().(*Stripe)
	if s == nil {
		// The pool is empty at first use, after a garbage collection
		// emptied it, or when more readers are present than it held.
		s = &t.s[int(t.misses.Add(1))&(len(t.s)-1)]
	}
	s.n.Add(1)
	return s
}

// Depart clears the mark a reader made on stripe s.
func (r *ReadIndicator) Depart(s *Stripe) {
	s.n.Add(-1)
	r.t.Load().free.Put(s)
}

// alloc makes the stripes on first use, fixing their count: the least power
// of two at least twice GOMAXPROCS.
func (r *ReadIndicator) alloc() *stripes {
	n := 1
	for n < 2*runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	t := &stripes{s: make([]Stripe, n)}
	if !r.t.CompareAndSwap(nil, t) {
		t = r.t.Load()
	}
	return t
}

// isEmpty reports whether no reader is present. It is not a snapshot:
// concurrent arrivals may race with the scan; callers combine it with a
// writer flag that blocks new arrivals (C-RW-WP) or a version toggle (LR).
func (r *ReadIndicator) isEmpty() bool {
	t := r.t.Load()
	if t == nil {
		return true
	}
	for i := range t.s {
		if t.s[i].n.Load() != 0 {
			return false
		}
	}
	return true
}

// WaitEmpty spins until the indicator is empty.
func (r *ReadIndicator) WaitEmpty() {
	for spins := 0; !r.isEmpty(); spins++ {
		if spins > 16 {
			runtime.Gosched()
		}
	}
}
