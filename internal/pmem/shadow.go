package pmem

import "sync/atomic"

// shadow is what the media holds that the image does not: for every cache
// line stored since it last reached the media, the LineSize bytes the media
// still has. Image plus shadow is the persisted view (for a line without an
// entry the two agree) at the cost of the lines in flight — a few dozen per
// transaction — and one slot index per line.
//
// Only the single mutator touches it. n mirrors len(lines) for gauges,
// refreshed per fence rather than per line: an atomic per captured and per
// dropped line costs the store path more than the second image did.
type shadow struct {
	slot  []int32 // per line: 1 + its index in lines and data, 0 for no entry
	lines []int32 // lines holding an entry, dense, in no particular order
	data  []byte  // LineSize media bytes per entry, parallel to lines
	n     atomic.Int64
}

// settle runs when a burst of drops is over: it refreshes the gauge copy of
// the population, and an empty shadow keeps at most a byte per line (1/64 of
// the image) of entry storage for reuse, so one bulk store — a whole-prefix
// copy — does not pin a second image for good.
func (s *shadow) settle() {
	s.n.Store(int64(len(s.lines)))
	if len(s.lines) == 0 && cap(s.data) > len(s.slot) {
		s.lines, s.data = nil, nil
	}
}

// capture records media, whole lines, as the media contents of the run of
// entry-less lines from first on, which the caller is about to overwrite, in
// one copy (across processors for a whole-prefix run).
func (s *shadow) capture(first int, media []byte) {
	for l := first; l < first+len(media)>>lineShift; l++ {
		s.lines = append(s.lines, int32(l))
		s.slot[l] = int32(len(s.lines))
	}
	at := len(s.data)
	if cap(s.data) < at+len(media) { // grown without make's clear, which a whole-prefix run would pay on one processor
		s.data = append(uninitialized(max(2*cap(s.data), at+len(media)))[:0], s.data...)
	}
	s.data = s.data[:at+len(media)]
	copyAcross(s.data[at:], media)
}

// drop forgets line's entry, if it has one: the line reached the media. The
// last entry moves into the hole, keeping lines and data dense.
func (s *shadow) drop(line int) {
	i := int(s.slot[line]) - 1
	if i < 0 {
		return
	}
	last := len(s.lines) - 1
	if i != last {
		moved := s.lines[last]
		s.lines[i], s.slot[moved] = moved, int32(i+1)
		copy(s.data[i<<lineShift:], s.data[last<<lineShift:])
	}
	s.slot[line] = 0
	s.lines, s.data = s.lines[:last], s.data[:last<<lineShift]
}

// overlay turns img, a copy of the image, into the media contents.
func (s *shadow) overlay(img []byte) {
	for i, line := range s.lines {
		copy(img[int(line)<<lineShift:], s.data[i<<lineShift:(i+1)<<lineShift])
	}
}

// reset forgets every entry.
func (s *shadow) reset() {
	for _, line := range s.lines {
		s.slot[line] = 0
	}
	s.lines, s.data = s.lines[:0], s.data[:0]
	s.settle()
}
