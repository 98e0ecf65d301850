//go:build linux && !race && go1.24

package pmem

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"
)

// imageAddr is where d's image is mapped.
func imageAddr(d *Device) uintptr { return uintptr(unsafe.Pointer(&d.mem[0])) }

// imageBytes sums the registry's mappings of live and of collected devices.
func imageBytes() (live, dead int) {
	images.Lock()
	defer images.Unlock()
	for _, im := range images.all {
		if im.dev.Value() != nil {
			live += len(im.mem)
		} else {
			dead += len(im.mem)
		}
	}
	return live, dead
}

// dirtied returns the address of a collected device of size bytes that had
// stored to a scattering of its lines, read the rest, and been written back
// in part, so its mapping holds stale bytes in resident pages and zero-page
// mappings elsewhere.
func dirtied(size int) uintptr {
	d := New(size, ModelDRAM)
	for off := 0; off < size; off += 5 * 4096 / 2 {
		d.Memset(off, 0xEE, LineSize+1)
		d.PwbRange(off, LineSize+1)
	}
	d.Pfence()
	d.Store64(size-8, ^uint64(0))
	_ = d.Persisted() // reads every page
	return imageAddr(d)
}

// residentPages counts the pages of d's image that are in memory.
func residentPages(t *testing.T, d *Device) int {
	vec, err := residency(d.mem)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, v := range vec {
		n += int(v & 1)
	}
	return n
}

// TestFreshImageIsSparse: a new device's mapping has no page in memory, and
// stores bring in the pages they touch and no others.
func TestFreshImageIsSparse(t *testing.T) {
	const size, stored = 8<<20 + 9*LineSize, 1 << 20 // a size no other test maps
	d := New(size, ModelDRAM)
	if n := residentPages(t, d); n != 0 {
		t.Fatalf("a fresh %d-byte image has %d pages in memory, want 0", size, n)
	}
	d.Memset(0, 1, stored)
	d.Store8(size-1, 1)
	if n, want := residentPages(t, d), stored/os.Getpagesize()+1; n != want {
		t.Fatalf("after storing %d bytes and 1, %d pages are in memory, want %d", stored, n, want)
	}
}

// TestRecycledImageReadsZero: New on the mapping of a collected device reads
// zero at every line, the lines the dead device stored to included.
func TestRecycledImageReadsZero(t *testing.T) {
	const size = 3<<20 + 7*LineSize
	was := dirtied(size)
	runtime.GC()
	d := New(size, ModelDRAM)
	if imageAddr(d) != was {
		t.Fatal("New did not take over the collected device's mapping")
	}
	for off := 0; off < size; off += 8 {
		if v := d.Load64(off); v != 0 {
			t.Fatalf("a recycled image reads %#x at %d, want 0", v, off)
		}
	}
	if !bytes.Equal(d.Persisted(), make([]byte, size)) {
		t.Fatal("a recycled image's persisted view is not all zeros")
	}
}

// TestRecycledImageFromImage: FromImage onto the mapping of a collected device
// holds img byte for byte, in both views.
func TestRecycledImageFromImage(t *testing.T) {
	const size = 2<<20 + 3*LineSize
	img := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(img[:size/3])
	was := dirtied(size)
	runtime.GC()
	d := FromImage(img, ModelDRAM)
	if imageAddr(d) != was {
		t.Fatal("FromImage did not take over the collected device's mapping")
	}
	if !bytes.Equal(d.Bytes(0, size), img) || !bytes.Equal(d.Persisted(), img) {
		t.Fatal("FromImage on a recycled mapping differs from its image")
	}
}

// TestLiveImageNeverHandedOut: while a device is reachable, no new device of
// its size gets its mapping, however many come and go, and its bytes stay.
func TestLiveImageNeverHandedOut(t *testing.T) {
	const size = 1<<20 + 5*LineSize
	keep := New(size, ModelDRAM)
	keep.Memset(0, 0x42, size)
	reused := false
	was := dirtied(size)
	for i := 0; i < 20; i++ {
		runtime.GC()
		d := New(size, ModelDRAM)
		if imageAddr(d) == imageAddr(keep) {
			t.Fatalf("round %d: a live device's mapping was handed out", i)
		}
		reused = reused || imageAddr(d) == was
		was = imageAddr(d)
		d.Memset(0, 0x17, size)
		if i%2 == 0 {
			FromImage(d.Persisted(), ModelDRAM)
		}
	}
	if !reused {
		t.Error("no collected device's mapping was reused")
	}
	for off := 0; off < size; off += 8 {
		if v := keep.Load64(off); v != 0x4242424242424242 {
			t.Fatalf("the live device reads %#x at %d", v, off)
		}
	}
}

// TestImageChurnBound: over 300 devices of mixed sizes, each kept for a few
// cycles and collected at chosen points, what collected devices keep mapped
// never exceeds what live ones hold, and every new device reads zero where
// its predecessors stored.
func TestImageChurnBound(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // collections only where the test runs them
	runtime.GC()
	rng := rand.New(rand.NewSource(5))
	sizes := []int{64 << 10, 192 << 10, 1 << 20, 3 << 20, 4<<20 + LineSize}
	var held []*Device
	for i := 0; i < 300; i++ {
		if len(held) > 0 && (len(held) > 6 || rng.Intn(2) == 0) {
			j := rng.Intn(len(held))
			held = append(held[:j], held[j+1:]...)
		}
		if i%3 == 0 {
			runtime.GC()
		}
		size := sizes[rng.Intn(len(sizes))]
		d := New(size, ModelDRAM)
		if live, dead := imageBytes(); dead > live {
			t.Fatalf("cycle %d: collected devices keep %d bytes mapped, live ones %d", i, dead, live)
		}
		for off := 0; off < size; off += 64 << 10 {
			if v := d.Load64(off); v != 0 {
				t.Fatalf("cycle %d: a new device reads %#x at %d", i, v, off)
			}
			d.Store64(off, uint64(i)+1)
		}
		held = append(held, d)
	}
	live, dead := imageBytes()
	t.Logf("at the end: %d KiB live, %d KiB kept for reuse", live>>10, dead>>10)
}
