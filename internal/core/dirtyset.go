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
// Like pmem.FlushSet, membership is an epoch-stamped array: reset is O(1)
// and add never allocates once the line buffer has grown to the working-set
// size. Line granularity means bytes sharing a line with a store are
// re-copied; that is harmless because the twin copies agree on every byte
// the round did not store (all mutations of main are interposed, and bytes
// never stored are zero in both copies), so copying a whole dirty line
// writes back only bytes that are already equal or just became
// authoritative.
//
// Only the single writer (the combiner thread) touches the set, like wtx
// and fset. Offsets are region-relative; mainBase and backBase are
// line-aligned, so region lines coincide with device lines.
type dirtySet struct {
	stamps  []uint32
	epoch   uint32
	lines   []int32
	scratch []rng
}

// init sizes the set for a region of size bytes and enables it. The zero
// dirtySet is disabled: add is a no-op and extents returns nothing.
func (s *dirtySet) init(size int) {
	s.stamps = make([]uint32, (size+pmem.LineSize-1)/pmem.LineSize)
	s.epoch = 1
}

// enabled reports whether init has run.
func (s *dirtySet) enabled() bool { return s.stamps != nil }

// add marks every cache line overlapping the region-relative byte range
// [off, off+n) dirty. Lines already dirty this round are skipped.
func (s *dirtySet) add(off, n uint64) {
	if s.stamps == nil || n == 0 {
		return
	}
	last := int((off + n - 1) / pmem.LineSize)
	for line := int(off / pmem.LineSize); line <= last; line++ {
		if s.stamps[line] != s.epoch {
			s.stamps[line] = s.epoch
			s.lines = append(s.lines, int32(line))
		}
	}
}

// len returns the number of distinct dirty lines this round.
func (s *dirtySet) len() int { return len(s.lines) }

// reset empties the set in O(1) by advancing the epoch.
func (s *dirtySet) reset() {
	s.lines = s.lines[:0]
	s.epoch++
	if s.epoch == 0 { // epoch wrapped: stamps may alias, clear them
		for i := range s.stamps {
			s.stamps[i] = 0
		}
		s.epoch = 1
	}
}

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
	if len(s.lines) == 0 {
		return nil
	}
	slices.Sort(s.lines)
	out := s.scratch[:0]
	start, prev := s.lines[0], s.lines[0]
	for _, line := range s.lines[1:] {
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
