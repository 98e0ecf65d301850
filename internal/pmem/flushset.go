package pmem

// LineSet is a set of cache lines that remembers insertion order: one bit per
// line plus the list of members, reset by clearing the listed bits, so a
// fill–drain cycle costs O(members) however large the region. It is the one
// line tracker: the device's write-back queue, FlushSet and the core engine's
// per-round dirty set are thin users. Like the data path, it is confined to
// the single mutator of its region and performs no synchronization.
type LineSet struct {
	bits  bitmap
	lines []int32
}

// NewLineSet creates an empty set over size bytes from a line boundary on.
func NewLineSet(size int) LineSet {
	return LineSet{bits: newBitmap((size + LineSize - 1) >> lineShift)}
}

func (s *LineSet) addLine(line int) {
	if !s.bits.test(line) {
		s.bits.set(line)
		s.lines = append(s.lines, int32(line))
	}
}

// Add inserts every cache line overlapping [off, off+n). Lines already in
// the set are skipped.
func (s *LineSet) Add(off, n int) {
	if n <= 0 {
		return
	}
	last := (off + n - 1) >> lineShift
	for line := off >> lineShift; line <= last; line++ {
		s.addLine(line)
	}
}

// Len returns the number of distinct lines in the set.
func (s *LineSet) Len() int { return len(s.lines) }

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

// FlushSet is a deduplicated set of dirty cache lines awaiting write-back.
// Engines that defer per-store pwbs to commit time record every stored range
// here and then issue exactly one Pwb per distinct line in one burst before
// the commit fence — the line-granular batching that eliminates the
// store-on-queued-line and re-queued-pwb waste classes an eager per-store
// flush discipline produces (§6.2; see also FliT's analysis of redundant
// flush traffic).
//
// Insertion order is preserved so flush bursts (and therefore traces and
// audit streams) are deterministic for a deterministic store sequence. Reset
// (promoted from LineSet) empties the set without issuing write-backs — the
// rollback path, where the engine restores and flushes the modified ranges
// from its twin copy instead.
type FlushSet struct{ LineSet }

// NewFlushSet creates a flush set covering a device (or region) of size
// bytes starting at offset 0.
func NewFlushSet(size int) *FlushSet { return &FlushSet{NewLineSet(size)} }

// Flush issues one Pwb per recorded line, in insertion order, then resets
// the set. The caller still owns the ordering fence.
func (f *FlushSet) Flush(d *Device) {
	for _, line := range f.lines {
		d.Pwb(int(line) << lineShift)
	}
	f.Reset()
}
