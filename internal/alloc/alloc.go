// Package alloc implements the sequential persistent-memory allocator used
// by every PTM engine in this repository. It follows the design the Romulus
// paper adapted from Doug Lea's allocator: boundary-tagged chunks with
// segregated free lists, with **all metadata stored inside the persistent
// region** and mutated exclusively through the interposed Mem interface.
//
// Because every metadata store goes through the owning transaction, a crash
// during an allocation or free rolls the allocator back together with the
// user data (§4.4 of the paper): there are no internal inconsistencies to
// repair and no external leaks to collect, and no specialized garbage
// collector is needed.
//
// Finding a free bin is O(1) in the number of bins, as in dlmalloc, whose
// smallmap and treemap keep one bit per bin: two persistent binmap words
// hold bit b set iff bin b is non-empty, so Alloc jumps to the first
// non-empty bin at or above the request's bin with one load and one
// TrailingZeros64 per word instead of loading every bin head. Bins are
// still visited in ascending order, so the binmap changes no allocation
// decision. It is ordinary heap metadata, stored through Mem like a bin
// head, so the owning transaction rolls it back, replicates it and
// recovers it with everything else; there is no volatile cache to
// invalidate.
//
// Line rule: metadata line 0 (the heap's first 64 bytes) holds the binmap,
// top, the three counters and the heads of bins 0 and 1, so every metadata
// word Alloc and Free store, apart from the heads of bins 2 and up, dirties
// that one line. magic and end, which only Format writes, sit past the bin
// heads.
//
// The allocator is sequential by design. The PTM engines guarantee a single
// mutator at a time (flat combining serializes all writers), which is
// exactly the property the paper exploits to reuse a sequential allocator.
package alloc

import (
	"errors"
	"fmt"
	"math/bits"
)

// Mem is the interposed persistent memory the heap lives in. Offsets are in
// the same address space as the pointers the heap hands out.
type Mem interface {
	Load64(off uint64) uint64
	Store64(off uint64, v uint64)
}

// Chunk geometry. Sizes are multiples of align; the low bits of the size
// field hold flags.
const (
	align      = 16
	headerSize = 16
	lineSize   = 64 // the cache line AllocAligned aligns chunks to
	// minChunk leaves room for header (16), fd/bk links (16) and the
	// boundary-tag footer (8, in the last word) without overlap.
	minChunk    = 48
	flagInUse   = 1 // this chunk is allocated
	flagPrevUse = 2 // the chunk immediately below is allocated
	flagMask    = flagInUse | flagPrevUse
	// Chunk sizes occupy the low 48 bits of the header word; the top 16
	// bits hold a checksum of the chunk address, so that Free of a pointer
	// that does not address a real chunk header (e.g. an interior pointer
	// whose surrounding payload happens to look plausible) is detected
	// with probability 65535/65536 instead of corrupting the free lists.
	sizeMask = (uint64(1)<<48 - 1) &^ flagMask
)

// headerTag returns the 16-bit address checksum stored in a chunk header.
func headerTag(c uint64) uint64 {
	x := c * 0x9E3779B97F4A7C15
	return (x >> 48) & 0xFFFF
}

// Bin layout: small bins hold one chunk size each (48..1040 step 16), large
// bins hold power-of-two ranges above that; the last large bin also takes
// every chunk above 2^41 bytes.
const (
	numSmallBins = 63
	numLargeBins = 31
	numBins      = numSmallBins + numLargeBins
	smallMax     = minChunk + (numSmallBins-1)*align // 1040
	binmapWords  = (numBins + 63) / 64
)

// Metadata field offsets, relative to the heap base. Line 0 (offsets 0..63)
// holds every metadata word Alloc and Free store apart from the heads of
// bins 2 and up.
const (
	offBinmap    = 0 // binmapWords words: bit b%64 of word b/64 is set iff bin b is non-empty
	offTop       = offBinmap + binmapWords*8
	offAllocs    = offTop + 8
	offFrees     = offAllocs + 8
	offAllocated = offFrees + 8
	offBins      = offAllocated + 8 // 48
	offMagic     = offBins + numBins*8
	offEnd       = offMagic + 8
	metaSize     = offEnd + 8 // 816
	firstChunkAt = (metaSize + align - 1) &^ (align - 1)
)

const magic = 0x524F4D554C414C43 // "ROMULALC"

// ErrCorrupt is returned by Open when the region does not contain a heap.
var ErrCorrupt = errors.New("alloc: heap metadata corrupt or unformatted")

// ErrOutOfMemory is returned by Alloc when no chunk can satisfy the request.
var ErrOutOfMemory = errors.New("alloc: out of memory")

// ErrBadFree is returned by Free for a pointer that does not address a live
// allocation.
var ErrBadFree = errors.New("alloc: bad free")

// Heap manages a persistent heap inside [base, base+size) of mem. The Heap
// struct itself is volatile and stateless: all durable state lives in mem,
// so a Heap can be re-opened over a recovered region at any time.
type Heap struct {
	mem  Mem
	base uint64
}

// MinSize is the smallest region a heap can be formatted in.
const MinSize = firstChunkAt + minChunk

// Format initializes heap metadata in [base, base+size) of mem and returns
// the heap. All stores go through mem and therefore through the caller's
// transaction.
func Format(mem Mem, base, size uint64) (*Heap, error) {
	if size < MinSize {
		return nil, fmt.Errorf("alloc: region size %d below minimum %d", size, MinSize)
	}
	h := &Heap{mem: mem, base: base}
	h.store(offEnd, base+size)
	h.store(offTop, base+firstChunkAt)
	h.store(offAllocs, 0)
	h.store(offFrees, 0)
	h.store(offAllocated, 0)
	for w := 0; w < binmapWords; w++ {
		h.store(offBinmap+uint64(w)*8, 0)
	}
	for b := 0; b < numBins; b++ {
		h.store(offBins+uint64(b)*8, 0)
	}
	h.store(offMagic, magic)
	return h, nil
}

// Open returns a heap over a previously formatted region.
func Open(mem Mem, base uint64) (*Heap, error) {
	h := &Heap{mem: mem, base: base}
	if h.load(offMagic) != magic {
		return nil, ErrCorrupt
	}
	return h, nil
}

func (h *Heap) load(rel uint64) uint64     { return h.mem.Load64(h.base + rel) }
func (h *Heap) store(rel, v uint64)        { h.mem.Store64(h.base+rel, v) }
func (h *Heap) binHead(b int) uint64       { return h.load(offBins + uint64(b)*8) }
func (h *Heap) setBinHead(b int, v uint64) { h.store(offBins+uint64(b)*8, v) }

// Absolute chunk accessors (off is an absolute offset in mem).
func (h *Heap) chunkWord(off uint64) uint64 { return h.mem.Load64(off) }
func (h *Heap) setChunkWord(off, v uint64)  { h.mem.Store64(off, v) }
func (h *Heap) chunkSize(c uint64) uint64   { return h.chunkWord(c) & sizeMask }
func (h *Heap) setHeader(c, size, fl uint64) {
	h.setChunkWord(c, size|fl|headerTag(c)<<48)
}
func (h *Heap) headerTagOK(c uint64) bool {
	return h.chunkWord(c)>>48 == headerTag(c)
}
func (h *Heap) inUse(c uint64) bool      { return h.chunkWord(c)&flagInUse != 0 }
func (h *Heap) prevInUse(c uint64) bool  { return h.chunkWord(c)&flagPrevUse != 0 }
func (h *Heap) footerOf(c, size uint64)  { h.setChunkWord(c+size-8, size) }
func (h *Heap) prevSize(c uint64) uint64 { return h.chunkWord(c - 8) }
func (h *Heap) fd(c uint64) uint64       { return h.chunkWord(c + 16) }
func (h *Heap) bk(c uint64) uint64       { return h.chunkWord(c + 24) }
func (h *Heap) setFd(c, v uint64)        { h.setChunkWord(c+16, v) }
func (h *Heap) setBk(c, v uint64)        { h.setChunkWord(c+24, v) }

func (h *Heap) setPrevUseBit(c uint64, used bool) {
	w := h.chunkWord(c)
	if used {
		w |= flagPrevUse
	} else {
		w &^= flagPrevUse
	}
	h.setChunkWord(c, w)
}

// binFor maps a chunk size to its bin index.
func binFor(size uint64) int {
	if size <= smallMax {
		return int((size - minChunk) >> 4)
	}
	// 1041..2048 -> first large bin, doubling after that.
	b := numSmallBins + bits.Len64(size-1) - 11
	if b >= numBins {
		b = numBins - 1
	}
	return b
}

// binmapOff returns the offset of the binmap word holding bin b's bit.
func binmapOff(b int) uint64 { return offBinmap + uint64(b>>6)*8 }

// markBin sets or clears bin b's binmap bit.
func (h *Heap) markBin(b int, nonEmpty bool) {
	m := h.load(binmapOff(b))
	if nonEmpty {
		m |= 1 << (b & 63)
	} else {
		m &^= 1 << (b & 63)
	}
	h.store(binmapOff(b), m)
}

// nextBin returns the first non-empty bin at or above b, or numBins if
// there is none: one load and one TrailingZeros64 per binmap word.
func (h *Heap) nextBin(b int) int {
	for ; b < numBins; b = (b | 63) + 1 {
		if m := h.load(binmapOff(b)) >> (b & 63); m != 0 {
			return b + bits.TrailingZeros64(m)
		}
	}
	return numBins
}

func (h *Heap) binInsert(c, size uint64) {
	b := binFor(size)
	head := h.binHead(b)
	h.setFd(c, head)
	h.setBk(c, 0)
	if head != 0 {
		h.setBk(head, c)
	} else {
		h.markBin(b, true)
	}
	h.setBinHead(b, c)
}

func (h *Heap) binUnlink(c, size uint64) {
	fd, bk := h.fd(c), h.bk(c)
	if bk == 0 {
		b := binFor(size)
		h.setBinHead(b, fd)
		if fd == 0 {
			h.markBin(b, false)
		}
	} else {
		h.setFd(bk, fd)
	}
	if fd != 0 {
		h.setBk(fd, bk)
	}
}

// chunkFor rounds a payload request up to a chunk size.
func chunkFor(n uint64) uint64 {
	size := (n + headerSize + align - 1) &^ (align - 1)
	if size < minChunk {
		size = minChunk
	}
	return size
}

// Alloc allocates n payload bytes and returns the absolute offset of the
// payload (chunk + header). The payload is NOT zeroed; the transactional
// layer above zeroes it so that the zeroing is interposed efficiently.
func (h *Heap) Alloc(n int) (uint64, error) { return h.alloc(n, false) }

// AllocAligned is Alloc for a chunk that starts on a cache line, so the
// payload starts headerSize bytes into a line and a request of
// k*lineSize-headerSize bytes fills exactly k lines. It is dlmalloc's
// memalign split: the gap in front of the aligned chunk (leadFor) becomes a
// free chunk in its bin, whether the chunk comes from a bin or is carved from
// top, so no byte leaks and the gap serves later requests.
func (h *Heap) AllocAligned(n int) (uint64, error) { return h.alloc(n, true) }

// leadFor returns the gap an allocation splits off in front of free chunk
// c: none unless aligned, else 0 if c starts a line, else the distance to
// the next line, grown by a line when it is below minChunk (a 16- or
// 32-byte gap cannot hold a free chunk).
func leadFor(c uint64, aligned bool) uint64 {
	if !aligned {
		return 0
	}
	lead := -c & (lineSize - 1)
	if lead != 0 && lead < minChunk {
		lead += lineSize
	}
	return lead
}

func (h *Heap) alloc(n int, aligned bool) (uint64, error) {
	if n < 0 {
		return 0, fmt.Errorf("alloc: negative size %d", n)
	}
	need := chunkFor(uint64(n))
	// Search the non-empty bins, smallest candidate bin first.
	for b := h.nextBin(binFor(need)); b < numBins; b = h.nextBin(b + 1) {
		for c := h.binHead(b); c != 0; c = h.fd(c) {
			size, l := h.chunkSize(c), leadFor(c, aligned)
			if size < need+l {
				continue
			}
			h.binUnlink(c, size)
			prevUse := uint64(flagPrevUse) // a free chunk's neighbours are in use
			if l > 0 {
				h.freeLead(c, l)
				c, size, prevUse = c+l, size-l, 0
			}
			h.bumpAllocStats(h.takeChunk(c, size, need, prevUse))
			return c + headerSize, nil
		}
	}
	// Carve from the wilderness. The chunk immediately below top is always
	// in use (free neighbours are merged into top), so flagPrevUse holds
	// unless a lead gap is split off first.
	top, end := h.load(offTop), h.load(offEnd)
	l := leadFor(top, aligned)
	if end-top < l+need {
		return 0, ErrOutOfMemory
	}
	c, prevUse := top, uint64(flagPrevUse)
	if l > 0 {
		h.freeLead(c, l)
		c, prevUse = c+l, 0
	}
	h.setHeader(c, need, flagInUse|prevUse)
	h.store(offTop, c+need)
	h.bumpAllocStats(need)
	return c + headerSize, nil
}

// freeLead turns the first size bytes of an unlinked free chunk (or of the
// wilderness) at c into a free chunk in its bin. The chunk below c is in use,
// since free neighbours are always merged, so there is nothing to coalesce.
func (h *Heap) freeLead(c, size uint64) {
	h.setHeader(c, size, flagPrevUse)
	h.footerOf(c, size)
	h.binInsert(c, size)
}

// takeChunk converts free chunk c (of the given size, already unlinked) into
// an allocated chunk of need bytes, splitting off any remainder that can
// hold a chunk, and returns the allocated chunk's size. prevUse is c's
// flagPrevUse bit: clear when a lead gap was split off below.
func (h *Heap) takeChunk(c, size, need, prevUse uint64) uint64 {
	if size-need >= minChunk {
		// Split: the remainder becomes a free chunk above c.
		r := c + need
		rs := size - need
		h.setHeader(r, rs, flagPrevUse) // c is now in use below r
		h.footerOf(r, rs)
		h.binInsert(r, rs)
		// The chunk above the remainder keeps flagPrevUse==0 (prev free).
		h.setHeader(c, need, flagInUse|prevUse)
		return need
	}
	// Use the whole chunk.
	h.setHeader(c, size, flagInUse|prevUse)
	next := c + size
	if next < h.load(offTop) {
		h.setPrevUseBit(next, true)
	}
	return size
}

func (h *Heap) bumpAllocStats(size uint64) {
	h.store(offAllocs, h.load(offAllocs)+1)
	h.store(offAllocated, h.load(offAllocated)+size)
}

// Free releases the allocation whose payload starts at p (as returned by
// Alloc), coalescing with free neighbours and the wilderness.
func (h *Heap) Free(p uint64) error {
	if p < h.base+firstChunkAt+headerSize || p%align != 0 {
		return ErrBadFree
	}
	c := p - headerSize
	top := h.load(offTop)
	if c >= top || !h.inUse(c) || !h.headerTagOK(c) {
		return ErrBadFree
	}
	size := h.chunkSize(c)
	if size < minChunk || size%align != 0 || c+size > top {
		return ErrBadFree
	}
	h.store(offFrees, h.load(offFrees)+1)
	h.store(offAllocated, h.load(offAllocated)-size)

	// Coalesce with the previous chunk if it is free. Headers of chunks
	// that cease to exist are cleared so stale (tagged, in-use-looking)
	// headers inside larger blocks cannot satisfy a later bogus Free.
	if !h.prevInUse(c) {
		ps := h.prevSize(c)
		prev := c - ps
		h.binUnlink(prev, ps)
		h.setChunkWord(c, 0)
		c = prev
		size += ps
	}
	next := c + size
	if next == top {
		// Merge into the wilderness. The chunk below c is in use (either c
		// had flagPrevUse, or we coalesced with prev whose prev was in use),
		// preserving the invariant that the chunk below top is allocated.
		h.setChunkWord(c, 0)
		h.store(offTop, c)
		return nil
	}
	// Coalesce with the next chunk if it is free.
	if !h.inUse(next) {
		ns := h.chunkSize(next)
		h.binUnlink(next, ns)
		h.setChunkWord(next, 0)
		size += ns
		next = c + size
		if next == top {
			h.setChunkWord(c, 0)
			h.store(offTop, c)
			return nil
		}
	}
	h.setPrevUseBit(next, false)
	h.setHeader(c, size, flagPrevUse)
	h.footerOf(c, size)
	h.binInsert(c, size)
	return nil
}

// Top returns the current wilderness offset: the high-water mark of the
// heap. Romulus copies only up to this point (§6.5).
func (h *Heap) Top() uint64 { return h.load(offTop) }

// Stats reports allocator counters (live in persistent memory, so they are
// transactional like everything else).
type Stats struct {
	Allocs         uint64
	Frees          uint64
	AllocatedBytes uint64
	TopOffset      uint64
}

// Stats returns a snapshot of the allocator counters.
func (h *Heap) Stats() Stats {
	return Stats{
		Allocs:         h.load(offAllocs),
		Frees:          h.load(offFrees),
		AllocatedBytes: h.load(offAllocated),
		TopOffset:      h.load(offTop),
	}
}

// CheckInvariants walks the whole heap and verifies chunk and bin
// consistency. Intended for tests; returns a descriptive error on the first
// violation found.
func (h *Heap) CheckInvariants() error {
	top, end := h.load(offTop), h.load(offEnd)
	if top < h.base+firstChunkAt || top > end {
		return fmt.Errorf("alloc: top %d outside [%d,%d]", top, h.base+firstChunkAt, end)
	}
	// Walk chunks linearly.
	free := map[uint64]uint64{} // chunk -> size
	prevFree := false
	prevExists := false
	for c := h.base + firstChunkAt; c < top; {
		size := h.chunkSize(c)
		if size < minChunk || size%align != 0 || c+size > top {
			return fmt.Errorf("alloc: chunk %d has bad size %d", c, size)
		}
		if !h.headerTagOK(c) {
			return fmt.Errorf("alloc: chunk %d has bad header tag", c)
		}
		if prevExists && h.prevInUse(c) == prevFree {
			return fmt.Errorf("alloc: chunk %d prev-use flag inconsistent", c)
		}
		if !h.inUse(c) {
			if prevFree {
				return fmt.Errorf("alloc: adjacent free chunks at %d", c)
			}
			if h.chunkWord(c+size-8) != size {
				return fmt.Errorf("alloc: chunk %d footer %d != size %d", c, h.chunkWord(c+size-8), size)
			}
			free[c] = size
			prevFree = true
		} else {
			prevFree = false
		}
		prevExists = true
		c += size
	}
	if prevFree {
		return fmt.Errorf("alloc: free chunk adjacent to top")
	}
	// Every free chunk must be in exactly the right bin, and the binmap must
	// mark exactly the non-empty bins.
	seen := map[uint64]bool{}
	for w := 0; w < binmapWords; w++ {
		m := h.load(offBinmap + uint64(w)*8)
		if valid := numBins - w*64; valid < 64 && m>>valid != 0 {
			return fmt.Errorf("alloc: binmap word %d marks bins past %d: %#x", w, numBins-1, m)
		}
	}
	for b := 0; b < numBins; b++ {
		if marked := h.load(binmapOff(b))&(1<<(b&63)) != 0; marked != (h.binHead(b) != 0) {
			return fmt.Errorf("alloc: bin %d binmap bit %t but head %d", b, marked, h.binHead(b))
		}
		prev := uint64(0)
		for c := h.binHead(b); c != 0; c = h.fd(c) {
			if seen[c] {
				return fmt.Errorf("alloc: chunk %d linked twice", c)
			}
			seen[c] = true
			size, ok := free[c]
			if !ok {
				return fmt.Errorf("alloc: bin %d links non-free chunk %d", b, c)
			}
			if binFor(size) != b {
				return fmt.Errorf("alloc: chunk %d size %d in bin %d, want %d", c, size, b, binFor(size))
			}
			if h.bk(c) != prev {
				return fmt.Errorf("alloc: chunk %d bk %d != %d", c, h.bk(c), prev)
			}
			prev = c
		}
	}
	if len(seen) != len(free) {
		return fmt.Errorf("alloc: %d free chunks but %d binned", len(free), len(seen))
	}
	return nil
}
