package pmem

import "math/bits"

// LineSet is a set of cache lines that remembers insertion order: one bit per
// line plus the list of members, reset by clearing the listed bits, so a
// fill–drain cycle costs O(members) however large the region. It is the one
// line tracker: the device's write-back queue and the core engine's record of
// a durability round's stores are its users. Insertion order makes a
// write-back burst over the members deterministic for a deterministic store
// sequence. Like the data path, it is confined to the single mutator of its
// region and performs no synchronization.
type LineSet struct {
	bits  bitmap
	lines []int32
}

// NewLineSet creates an empty set over size bytes from a line boundary on.
func NewLineSet(size int) LineSet {
	return LineSet{bits: newBitmap((size + LineSize - 1) >> lineShift)}
}

// addWord inserts the lines of bitmap word w (64 lines) that m holds, ascending.
func (s *LineSet) addWord(w int, m uint64) {
	m &^= s.bits.words[w]
	s.bits.words[w] |= m
	for ; m != 0; m &= m - 1 {
		s.lines = append(s.lines, int32(w<<6+bits.TrailingZeros64(m)))
	}
}

// Add inserts every cache line overlapping [off, off+n). Lines already in
// the set are skipped.
func (s *LineSet) Add(off, n int) {
	if n <= 0 {
		return
	}
	first, last := off>>lineShift, (off+n-1)>>lineShift
	for w := first >> 6; w <= last>>6; w++ {
		s.addWord(w, lineMask(w, first, last))
	}
}

// Has reports whether the line holding byte off is in the set.
func (s *LineSet) Has(off int) bool { return s.bits.test(off >> lineShift) }

// Lines returns the members in insertion order: the set's own slice, valid
// until the next Add or Reset; a caller may reorder it, nothing else.
func (s *LineSet) Lines() []int32 { return s.lines }

// Reset empties the set.
func (s *LineSet) Reset() {
	for _, line := range s.lines {
		s.bits.clear(int(line))
	}
	s.lines = s.lines[:0]
}
