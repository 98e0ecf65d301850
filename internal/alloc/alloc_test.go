package alloc

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// sliceMem is a trivial Mem over a byte slice for testing the heap in
// isolation from any PTM engine.
type sliceMem []byte

func (m sliceMem) Load64(off uint64) uint64 {
	return binary.LittleEndian.Uint64(m[off:])
}

func (m sliceMem) Store64(off, v uint64) {
	binary.LittleEndian.PutUint64(m[off:], v)
}

func newHeap(t testing.TB, size uint64) *Heap {
	t.Helper()
	mem := make(sliceMem, size+64)
	h, err := Format(mem, 64, size)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return h
}

func TestFormatAndOpen(t *testing.T) {
	mem := make(sliceMem, 1<<16)
	if _, err := Format(mem, 0, MinSize-1); err == nil {
		t.Error("Format accepted undersized region")
	}
	h, err := Format(mem, 0, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(mem, 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if h2.Top() != h.Top() || h2.End() != h.End() {
		t.Error("re-opened heap disagrees with original")
	}
	if _, err := Open(make(sliceMem, 1024), 0); err != ErrCorrupt {
		t.Errorf("Open of blank region: %v, want ErrCorrupt", err)
	}
}

func TestAllocBasics(t *testing.T) {
	h := newHeap(t, 1<<16)
	p1, err := h.Alloc(24)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == 0 {
		t.Fatal("nil pointer from Alloc")
	}
	if p1%16 != 0 {
		t.Errorf("pointer %d not 16-aligned", p1)
	}
	p2, err := h.Alloc(24)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Error("two live allocations share a pointer")
	}
	n, err := h.UsableSize(p1)
	if err != nil || n < 24 {
		t.Errorf("UsableSize = %d, %v", n, err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSizedAlloc(t *testing.T) {
	h := newHeap(t, 1<<16)
	p, err := h.Alloc(0)
	if err != nil || p == 0 {
		t.Fatalf("Alloc(0) = %d, %v", p, err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAlloc(t *testing.T) {
	h := newHeap(t, 1<<16)
	if _, err := h.Alloc(-1); err == nil {
		t.Error("Alloc(-1) succeeded")
	}
}

func TestFreeAndReuse(t *testing.T) {
	h := newHeap(t, 1<<16)
	p1, _ := h.Alloc(100)
	p2, _ := h.Alloc(100) // keeps p1's region from merging into the top
	if err := h.Free(p1); err != nil {
		t.Fatal(err)
	}
	p3, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Errorf("freed chunk not reused: got %d, want %d", p3, p1)
	}
	_ = p2
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeAdjacentToTopShrinksHeap(t *testing.T) {
	h := newHeap(t, 1<<16)
	before := h.Top()
	p, _ := h.Alloc(1000)
	if h.Top() <= before {
		t.Fatal("top did not grow")
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if h.Top() != before {
		t.Errorf("top = %d after free, want %d", h.Top(), before)
	}
}

func TestCoalescing(t *testing.T) {
	h := newHeap(t, 1<<16)
	p1, _ := h.Alloc(48)
	p2, _ := h.Alloc(48)
	p3, _ := h.Alloc(48)
	p4, _ := h.Alloc(48) // barrier against the top
	// Free in an order that exercises next- then prev-coalescing.
	if err := h.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p3); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p2); err != nil { // merges p1+p2+p3
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The coalesced block must satisfy a request covering all three chunks
	// (3 x 64-byte chunks minus one 16-byte header).
	p5, err := h.Alloc(3*64 - 16)
	if err != nil {
		t.Fatal(err)
	}
	if p5 != p1 {
		t.Errorf("coalesced block starts at %d, want %d", p5, p1)
	}
	_ = p4
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitLeavesUsableRemainder(t *testing.T) {
	h := newHeap(t, 1<<16)
	big, _ := h.Alloc(1024)
	_, _ = h.Alloc(16) // barrier
	if err := h.Free(big); err != nil {
		t.Fatal(err)
	}
	small, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if small != big {
		t.Errorf("split did not reuse the big chunk: %d vs %d", small, big)
	}
	// The remainder must serve another allocation without touching the top.
	top := h.Top()
	if _, err := h.Alloc(512); err != nil {
		t.Fatal(err)
	}
	if h.Top() != top {
		t.Error("remainder not reused; allocation went to the wilderness")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBadFree(t *testing.T) {
	h := newHeap(t, 1<<16)
	p, _ := h.Alloc(64)
	cases := []uint64{0, 8, p + 8, p + 1, h.End() + 16}
	for _, bad := range cases {
		if err := h.Free(bad); err != ErrBadFree {
			t.Errorf("Free(%d) = %v, want ErrBadFree", bad, err)
		}
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != ErrBadFree {
		t.Errorf("double free = %v, want ErrBadFree", err)
	}
}

func TestOutOfMemory(t *testing.T) {
	h := newHeap(t, MinSize+256)
	if _, err := h.Alloc(1 << 20); err != ErrOutOfMemory {
		t.Errorf("huge Alloc = %v, want ErrOutOfMemory", err)
	}
	// Exhaust, then verify recovery by freeing.
	var ps []uint64
	for {
		p, err := h.Alloc(32)
		if err == ErrOutOfMemory {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if len(ps) == 0 {
		t.Fatal("no allocations before OOM")
	}
	for _, p := range ps {
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Alloc(64); err != nil {
		t.Errorf("Alloc after freeing everything: %v", err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	h := newHeap(t, 1<<16)
	p, _ := h.Alloc(100)
	s := h.Stats()
	if s.Allocs != 1 || s.Frees != 0 || s.AllocatedBytes == 0 {
		t.Errorf("after alloc: %+v", s)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	s = h.Stats()
	if s.Frees != 1 || s.AllocatedBytes != 0 {
		t.Errorf("after free: %+v", s)
	}
}

func TestLargeBinRouting(t *testing.T) {
	h := newHeap(t, 1<<22)
	sizes := []int{2000, 5000, 70000, 300000, 1 << 20}
	var ps []uint64
	for _, n := range sizes {
		p, err := h.Alloc(n)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", n, err)
		}
		ps = append(ps, p)
	}
	_, _ = h.Alloc(16) // barrier
	for _, p := range ps {
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Reuse from bins, not the wilderness.
	top := h.Top()
	for _, n := range sizes {
		if _, err := h.Alloc(n); err != nil {
			t.Fatalf("re-Alloc(%d): %v", n, err)
		}
	}
	if h.Top() != top {
		t.Error("large allocations not served from bins")
	}
}

// inBin reports whether free chunk c of the given size is linked in its bin.
func inBin(h *Heap, c, size uint64) bool {
	for x := h.binHead(binFor(size)); x != 0; x = h.fd(x) {
		if x == c {
			return h.chunkSize(x) == size && !h.inUse(x)
		}
	}
	return false
}

// checkAligned requires p to be an AllocAligned payload whose chunk starts
// lead bytes past c, with the lead gap (if any) a free chunk in its bin, and
// the heap's invariants and byte account to hold.
func checkAligned(t *testing.T, h *Heap, p, c, lead uint64) {
	t.Helper()
	if p-headerSize != c+lead || (p-headerSize)%lineSize != 0 {
		t.Fatalf("payload %d: want a line-aligned chunk at %d+%d", p, c, lead)
	}
	if lead > 0 && !inBin(h, c, lead) {
		t.Fatalf("lead gap of %d bytes at %d is not in its bin", lead, c)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := checkAccount(h); err != nil {
		t.Fatal(err)
	}
}

// The node layouts built on AllocAligned (pstruct.ByteMap) read the chunk
// geometry from ptm and the line from pmem: these fail to compile unless the
// three agree.
var (
	_ = [1]struct{}{}[headerSize-ptm.ChunkHeader]
	_ = [1]struct{}{}[lineSize-ptm.LineSize]
	_ = [1]struct{}{}[lineSize-pmem.LineSize]
)

// TestAllocAlignedCarvesFromTop carves a line-aligned chunk from top at each
// of top's four offsets within a line: a 16- or 32-byte lead is below
// minChunk and grows by a line, a 48-byte lead is a chunk as it is.
func TestAllocAlignedCarvesFromTop(t *testing.T) {
	for _, tc := range []struct {
		pad  int    // plain allocation that moves top (48 mod 64 on a fresh heap)
		lead uint64 // gap in front of the aligned chunk
	}{
		{-1, 16 + lineSize}, // top at 48 mod 64
		{64, 0},             // an 80-byte chunk: top at 0
		{80, 48},            // a 96-byte chunk: top at 16
		{32, 32 + lineSize}, // a 48-byte chunk: top at 32
	} {
		h := newHeap(t, 1<<16)
		if tc.pad >= 0 {
			if _, err := h.Alloc(tc.pad); err != nil {
				t.Fatal(err)
			}
		}
		top := h.Top()
		p, err := h.AllocAligned(lineSize - headerSize)
		if err != nil {
			t.Fatal(err)
		}
		checkAligned(t, h, p, top, tc.lead)
		if h.Top() != top+tc.lead+lineSize {
			t.Fatalf("top %d after a one-line chunk behind a %d-byte lead from %d", h.Top(), tc.lead, top)
		}
		if err := h.Free(p); err != nil || h.Top() != top {
			t.Fatalf("Free: %v; top %d, want the lead gap merged back into top at %d", err, h.Top(), top)
		}
	}
}

// TestAllocAlignedSplitsBinnedChunk takes a line-aligned chunk out of a free
// chunk in a bin that starts 48 or 32 bytes into a line: the 16- or 32-byte
// lead grows by a line into a binned gap, and the tail past the aligned chunk
// is binned as in any split.
func TestAllocAlignedSplitsBinnedChunk(t *testing.T) {
	for _, tc := range []struct {
		pad  int
		lead uint64
	}{
		{-1, 16 + lineSize}, // the free chunk starts at 48 mod 64
		{32, 32 + lineSize}, // behind a 48-byte chunk: at 32 mod 64
	} {
		h := newHeap(t, 1<<16)
		if tc.pad >= 0 {
			if _, err := h.Alloc(tc.pad); err != nil {
				t.Fatal(err)
			}
		}
		a, err := h.Alloc(300)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Alloc(8); err != nil { // barrier against top
			t.Fatal(err)
		}
		if err := h.Free(a); err != nil {
			t.Fatal(err)
		}
		c, size := a-headerSize, h.chunkSize(a-headerSize)
		p, err := h.AllocAligned(2*lineSize - headerSize)
		if err != nil {
			t.Fatal(err)
		}
		checkAligned(t, h, p, c, tc.lead)
		if tail := c + tc.lead + 2*lineSize; !inBin(h, tail, size-tc.lead-2*lineSize) {
			t.Fatalf("tail at %d of the split chunk is not in its bin", tail)
		}
	}
}

func TestBinForMonotonic(t *testing.T) {
	last := 0
	for size := uint64(minChunk); size <= 1<<30; size += 16 {
		b := binFor(size)
		if b < last {
			t.Fatalf("binFor(%d) = %d < previous %d", size, b, last)
		}
		if b >= numBins {
			t.Fatalf("binFor(%d) = %d out of range", size, b)
		}
		last = b
		if size > 1<<12 {
			size += size / 2 // sample sparsely above 4 KiB
		}
	}
}

// Property: a random interleaving of allocs and frees never hands out
// overlapping blocks, never corrupts invariants, and frees always succeed
// for live pointers.
func TestQuickRandomAllocFree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newHeap(t, 1<<18)
		type block struct{ p, n uint64 }
		var live []block
		overlap := func(a, b block) bool {
			return a.p < b.p+b.n && b.p < a.p+a.n
		}
		for i := 0; i < 300; i++ {
			if len(live) == 0 || rng.Intn(3) != 0 {
				n := uint64(rng.Intn(2000))
				p, err := h.Alloc(int(n))
				if err == ErrOutOfMemory {
					continue
				}
				if err != nil {
					t.Logf("Alloc: %v", err)
					return false
				}
				nb := block{p, n}
				if n == 0 {
					nb.n = 1
				}
				for _, b := range live {
					if overlap(nb, b) {
						t.Logf("overlap: %+v vs %+v", nb, b)
						return false
					}
				}
				live = append(live, nb)
			} else {
				i := rng.Intn(len(live))
				if err := h.Free(live[i].p); err != nil {
					t.Logf("Free: %v", err)
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		if err := h.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: contents of live allocations survive arbitrary churn around
// them (the allocator never writes into live payloads).
func TestQuickPayloadIntegrity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mem := make(sliceMem, 1<<18)
		h, err := Format(mem, 0, 1<<18)
		if err != nil {
			return false
		}
		type block struct {
			p    uint64
			data uint64
		}
		var live []block
		for i := 0; i < 200; i++ {
			switch {
			case len(live) == 0 || rng.Intn(3) != 0:
				p, err := h.Alloc(8 + rng.Intn(200))
				if err != nil {
					continue
				}
				v := rng.Uint64()
				mem.Store64(p, v)
				live = append(live, block{p, v})
			default:
				i := rng.Intn(len(live))
				if err := h.Free(live[i].p); err != nil {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for _, b := range live {
				if mem.Load64(b.p) != b.data {
					t.Logf("payload at %d clobbered", b.p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// countMem counts the loads a heap makes.
type countMem struct {
	sliceMem
	loads int
}

func (m *countMem) Load64(off uint64) uint64 {
	m.loads++
	return m.sliceMem.Load64(off)
}

// TestAllocLoadsPerAlloc pins the cost of the free-bin search on a fresh
// heap, where every bin is empty: the binmap answers in one load per word,
// so one Alloc of any size makes a handful of loads rather than one per bin
// head from the request's bin up.
func TestAllocLoadsPerAlloc(t *testing.T) {
	for n := 8; n <= 64<<10; n = n*2 + 8 {
		mem := &countMem{sliceMem: make(sliceMem, 1<<18)}
		h, err := Format(mem, 0, 1<<18)
		if err != nil {
			t.Fatal(err)
		}
		mem.loads = 0
		if _, err := h.Alloc(n); err != nil {
			t.Fatalf("Alloc(%d): %v", n, err)
		}
		t.Logf("Alloc(%d), bin %d: %d loads", n, binFor(chunkFor(uint64(n))), mem.loads)
		if mem.loads > 8 {
			t.Errorf("Alloc(%d) on a fresh heap made %d loads, want <= 8", n, mem.loads)
		}
	}
}

func BenchmarkAllocFree(b *testing.B) {
	h := newHeap(b, 1<<20)
	for i := 0; i < b.N; i++ {
		p, err := h.Alloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocFresh allocates 64-byte payloads on a heap whose bins are all
// empty, the bulk-load path: every Alloc searches the bins and carves from
// the wilderness. The heap is reformatted, off the clock, when it fills.
func BenchmarkAllocFresh(b *testing.B) {
	const size = 1 << 24
	mem := make(sliceMem, size)
	h, err := Format(mem, 0, size)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := h.Alloc(64); err == ErrOutOfMemory {
			b.StopTimer()
			if h, err = Format(mem, 0, size); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		} else if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocPopulated is BenchmarkAllocFree on a heap with 40 non-empty
// bins, all above the request's bin and spread over both binmap words:
// each Alloc splits the first non-empty bin's chunk and each Free coalesces
// it back.
func BenchmarkAllocPopulated(b *testing.B) {
	h := newHeap(b, 1<<22)
	var held []uint64
	for i := 0; i < 40; i++ {
		n := 200 + 16*i // small bins 11..40
		if i >= 30 {
			n = 1100 << (i - 30) // large bins 63..72
		}
		p, err := h.Alloc(n)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Alloc(16); err != nil { // barrier against coalescing
			b.Fatal(err)
		}
		held = append(held, p)
	}
	for _, p := range held {
		if err := h.Free(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := h.Alloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Free(p); err != nil {
			b.Fatal(err)
		}
	}
}
