package core

import "repro/internal/ptm"

// Device layout:
//
//	[ head : headSize ][ main : regionSize ][ back : regionSize ]
//
// The persistent header is not replicated (Figure 2 of the paper); it holds
// the transaction state machine and the bookkeeping needed to bound copies.
const (
	offMagic      = 0   // format marker, written last during initialization
	offVersion    = 8   // layout version
	offRegionSize = 16  // size of each of main and back
	offWatermark  = 24  // monotonic high-water mark of used bytes in main
	offHeadSum    = 32  // checksum of the static header words (magic, version, region size)
	offState      = 64  // IDL/MUT/CPY, on its own cache line
	headSize      = 256 // one-time cost; keeps main cache-line aligned
)

// Transaction states (the paper's IDL, MUT, CPY).
const (
	stateIDL uint64 = 0 // outside a transaction: both copies consistent
	stateMUT uint64 = 1 // user code mutating main: back is consistent
	stateCPY uint64 = 2 // committed, replicating to back: main is consistent
)

// layoutVersion 2 added the allocator's binmap; 3 made pstruct.ByteMap
// nodes hold their values, line-aligned.
const (
	magicValue    = 0x524F4D554C555331 // "ROMULUS1"
	layoutVersion = 3
)

// Main-region layout (offsets are Ptr values, i.e. relative to main):
// the first cache line is reserved so that Ptr 0 stays an unambiguous nil,
// then the root-pointer array, then the allocator-managed heap.
const (
	rootsOff = 64
	heapBase = rootsOff + ptm.NumRoots*8
)
