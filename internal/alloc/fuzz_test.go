package alloc

import (
	"fmt"
	"testing"
)

// FuzzAllocFree interprets the fuzz input as a sequence of allocator
// commands and checks the heap invariants, binmap included, after every
// step, along with the byte account: allocated plus binned bytes cover the
// heap below top, so no lead gap of AllocAligned leaks. Before every
// allocation it also works out the chunk the allocator must return by the
// linear scan over every bin head that the binmap replaced, and requires
// the allocator to return exactly that chunk. An alloc command with the top
// bit set is AllocAligned, whose chunk must start a line. Run with
// `go test -fuzz FuzzAllocFree ./internal/alloc`; the seeds below also run
// in ordinary `go test`.
func FuzzAllocFree(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0, 0, 100, 1, 1})
	f.Add([]byte{0, 255, 0, 255, 1, 0, 1, 1, 0, 16})
	f.Add(bytes16(0, 1, 0, 2, 0, 3, 1, 1, 1, 0, 0, 200, 1, 0, 0, 50))
	// Fill a bin with two chunks held apart by barriers, then drain it and
	// allocate once more from the wilderness: a small bin (96-byte chunks,
	// bin 3), the first large bin (1,616-byte chunks, bin 63, the last bit
	// of binmap word 0) and the second large bin (2,064-byte chunks, bin 64,
	// the first bit of word 1).
	for _, arg := range []byte{10, 200, 255} {
		f.Add(bytes16(0, arg, 0, 1, 0, arg, 0, 1, 1, 0, 1, 1, 0, arg, 0, arg, 0, arg))
	}
	// Two adjacent 2,064-byte chunks coalesce into a 4,128-byte one (bin 65),
	// which a smaller request splits, leaving the remainder in bin 64.
	f.Add(bytes16(0, 255, 0, 255, 0, 1, 1, 0, 1, 0, 0, 200, 0, 255, 0, 255))
	// Line-aligned chunks carved from top behind a 16- and a 32-byte lead
	// (each grown by a line), then from a freed chunk in a bin, and a plain
	// request that reuses a lead gap.
	f.Add(bytes16(128, 6, 0, 2, 128, 14, 0, 1, 1, 1, 128, 6, 0, 4))
	f.Add(bytes16(0, 100, 0, 1, 1, 0, 128, 40, 128, 2, 1, 1, 128, 200, 0, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := make(sliceMem, 1<<16)
		h, err := Format(mem, 0, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		var live []uint64
		for i := 0; i+1 < len(data); i += 2 {
			cmd, arg := data[i], data[i+1]
			aligned := cmd >= 128
			switch cmd & 127 % 3 {
			case 0: // alloc of arg*8 bytes
				n := int(arg) * 8
				want, fits := linearPick(h, n, aligned)
				pick := h.Alloc
				if aligned {
					pick = h.AllocAligned
				}
				p, err := pick(n)
				if err == ErrOutOfMemory {
					if fits {
						t.Fatalf("alloc(%d, aligned %t): out of memory, but chunk %d fits", n, aligned, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("alloc: %v", err)
				}
				if !fits || p != want {
					t.Fatalf("alloc(%d, aligned %t) = %d, the linear bin scan picks %d (fits %t)", n, aligned, p, want, fits)
				}
				if aligned && (p-headerSize)%lineSize != 0 {
					t.Fatalf("AllocAligned(%d) = %d: chunk does not start a line", n, p)
				}
				live = append(live, p)
			case 1: // free a live pointer
				if len(live) == 0 {
					continue
				}
				idx := int(arg) % len(live)
				if err := h.Free(live[idx]); err != nil {
					t.Fatalf("Free(%d): %v", live[idx], err)
				}
				live = append(live[:idx], live[idx+1:]...)
			case 2: // free a bogus pointer: must fail cleanly
				bogus := uint64(arg) * 7
				if err := h.Free(bogus); err == nil {
					// Only legal if it happened to be live.
					found := false
					for _, p := range live {
						if p == bogus {
							found = true
						}
					}
					if !found {
						t.Fatalf("Free(%d) of non-live pointer succeeded", bogus)
					}
					// Remove it so we don't double free later.
					for i, p := range live {
						if p == bogus {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatalf("invariants after command %d: %v", i/2, err)
			}
			if err := checkAccount(h); err != nil {
				t.Fatalf("after command %d: %v", i/2, err)
			}
		}
	})
}

// checkAccount requires the allocated bytes and the bytes of every binned
// free chunk to add up to the heap below top: a byte in neither has leaked.
func checkAccount(h *Heap) error {
	binned := uint64(0)
	for b := 0; b < numBins; b++ {
		for c := h.binHead(b); c != 0; c = h.fd(c) {
			binned += h.chunkSize(c)
		}
	}
	if used, allocated := h.Top()-h.base-firstChunkAt, h.Stats().AllocatedBytes; allocated+binned != used {
		return fmt.Errorf("allocated %d + binned %d bytes != %d bytes below top", allocated, binned, used)
	}
	return nil
}

// linearPick returns the payload Alloc(n), or AllocAligned(n), must return,
// found the way the allocator did before the binmap: the first chunk that
// fits (behind its lead gap, if aligned), scanning every bin head from the
// request's bin up, else the wilderness. fits is false if nothing can hold
// n bytes.
func linearPick(h *Heap, n int, aligned bool) (p uint64, fits bool) {
	need := chunkFor(uint64(n))
	lead := func(c uint64) uint64 { return leadFor(c, aligned) }
	for b := binFor(need); b < numBins; b++ {
		for c := h.binHead(b); c != 0; c = h.fd(c) {
			if h.chunkSize(c) >= need+lead(c) {
				return c + lead(c) + headerSize, true
			}
		}
	}
	if top := h.Top(); h.load(offEnd)-top >= need+lead(top) {
		return top + lead(top) + headerSize, true
	}
	return 0, false
}

func bytes16(vals ...byte) []byte { return vals }
