package core

import (
	"slices"

	"repro/internal/pmem"
)

// dirtySet is the per-durability-round dirty-extent tracker of the basic
// Rom variant: a cache-line-granular record of every main-region line the
// round's stores touched, kept in DRAM where the log variants keep their
// range log. replicate() copies exactly these lines to back — collapsing
// the basic algorithm's back-copy from O(heap watermark) to O(dirty) — and
// rollback restores exactly these lines from back. Recovery never consults
// it: after a crash the twins are reconciled over the full prefix, as in
// Algorithm 1, so the crash-safety argument is unchanged (see DESIGN.md).
//
// Membership is a pmem.LineSet, the same tracker behind pmem.FlushSet: one
// bit per line, reset costs O(dirty lines), and add never allocates once the
// line list has grown to the working-set size. Line granularity means bytes
// sharing a line with a store are re-copied; that is harmless because the
// twin copies agree on every byte the round did not store (all mutations of
// main are interposed, and bytes never stored are zero in both copies), so
// copying a whole dirty line writes back only bytes that are already equal
// or just became authoritative.
//
// Only the single writer (the combiner thread) touches the set, like wtx
// and fset. Offsets are region-relative; mainBase and backBase are
// line-aligned, so region lines coincide with device lines.
type dirtySet struct {
	on      bool
	set     pmem.LineSet
	scratch []rng
}

// init sizes the set for a region of size bytes and enables it. The zero
// dirtySet is disabled: add is a no-op and extents returns nothing.
func (s *dirtySet) init(size int) { s.on, s.set = true, pmem.NewLineSet(size) }

// enabled reports whether init has run.
func (s *dirtySet) enabled() bool { return s.on }

// add marks every cache line overlapping the region-relative byte range
// [off, off+n) dirty. Lines already dirty this round are skipped.
func (s *dirtySet) add(off, n uint64) {
	if s.on {
		s.set.Add(int(off), int(n))
	}
}

// len returns the number of distinct dirty lines this round.
func (s *dirtySet) len() int { return s.set.Len() }

// reset empties the set.
func (s *dirtySet) reset() { s.set.Reset() }

// extents returns the round's dirty lines as sorted, line-aligned,
// maximally coalesced [Off, Off+N) byte ranges. Sorting happens here, once
// per round, instead of keeping the set ordered per store; the returned
// slice is scratch reused across rounds. Adjacent dirty lines fuse so a
// sequential store burst costs one CopyWithin, but clean lines are never
// bridged: every line of every extent was stored this round, which is what
// keeps the replication write-back burst free of audit_pwb_clean waste
// (MOD-style minimal ordering — clean lines are neither copied, flushed,
// nor re-fenced).
func (s *dirtySet) extents() []rng {
	lines := s.set.Lines()
	if len(lines) == 0 {
		return nil
	}
	slices.Sort(lines)
	out := s.scratch[:0]
	start, prev := lines[0], lines[0]
	for _, line := range lines[1:] {
		if line == prev+1 {
			prev = line
			continue
		}
		out = append(out, rng{uint64(start) * pmem.LineSize, uint64(prev-start+1) * pmem.LineSize})
		start, prev = line, line
	}
	out = append(out, rng{uint64(start) * pmem.LineSize, uint64(prev-start+1) * pmem.LineSize})
	s.scratch = out
	return out
}
