package pmem

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
)

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// resident is the process's resident set in bytes, from /proc/self/statm.
func resident(t *testing.T) int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Skipf("no resident-set figure: %v", err)
	}
	var size, pages int64
	if _, err := fmt.Sscan(string(b), &size, &pages); err != nil {
		t.Fatalf("statm %q: %v", b, err)
	}
	return pages * int64(os.Getpagesize())
}

// TestDeviceFootprint pins the space account of the Go heap: the image lives
// outside it, so a device keeps there only its per-line state (a slot index,
// two bits: a few percent of the image) and a shadow sized to the lines in
// flight — not an image.
func TestDeviceFootprint(t *testing.T) {
	if !OffHeap {
		t.Skip("device images are Go slices in this build")
	}
	const size = 32 << 20
	before := liveHeap()
	d := New(size, ModelDRAM)
	for i := 0; i < 4096; i++ { // a working life: the shadow's storage exists and is reused
		off := (i * 2654435761) % (size - 4*LineSize)
		d.Memset(off, byte(i), 3*LineSize)
		d.PwbRange(off, 3*LineSize)
		d.Pfence()
	}
	d.StoreBytes(0, make([]byte, 4<<20)) // one bulk store must not pin its shadow for good
	d.PwbRange(0, 4<<20)
	d.Psync()
	grown := float64(liveHeap()-before) / size
	runtime.KeepAlive(d)
	if grown > 0.08 {
		t.Errorf("a %d MiB device holds %.3fx its size in heap, want <= 0.08x", size>>20, grown)
	}
	t.Logf("device heap = %.3fx image", grown)
}

// TestDeviceResidentFootprint pins the other half: the image is resident for
// the pages stored to, not for its size. Storing a 1 MiB prefix — what an
// engine's watermark covers — into a fresh 32 MiB device grows the resident
// set by that 1 MiB and the per-line state of its lines, not by 32 MiB. The
// growth is counted from the new device on: making the per-line state costs
// between nothing and its whole 2 MiB of resident heap, as the heap happens
// to find pages. TestDeviceFootprint bounds that, and TestFreshImageIsSparse
// pins that New itself brings in no page of the image.
func TestDeviceResidentFootprint(t *testing.T) {
	if !OffHeap {
		t.Skip("device images are Go slices in this build")
	}
	const size, stored, chunk = 32<<20 + 4096, 1 << 20, 16 << 10 // a size no other test maps
	data := bytes.Repeat([]byte{0x5A}, chunk)
	store := func(d *Device, off int) {
		d.StoreBytes(off, data)
		d.PwbRange(off, chunk)
		d.Pfence()
	}
	store(New(chunk, ModelDRAM), 0) // the code the count runs is paged in now, not during it
	d := New(size, ModelDRAM)
	debug.FreeOSMemory() // and the heap returns its free pages now
	before := resident(t)
	for off := 0; off < stored; off += chunk {
		store(d, off)
	}
	grown := resident(t) - before
	runtime.KeepAlive(d)
	if grown > 2<<20 {
		t.Errorf("a %d MiB device with %d KiB stored grew the resident set by %d KiB, want <= 2048 KiB",
			size>>20, stored>>10, grown>>10)
	}
	t.Logf("resident growth = %d KiB", grown>>10)
}

// benchPending leaves a transaction's worth of lines in flight: 32 stored,
// half of them queued.
func benchPending(d *Device, i int) {
	base := (i * 2654435761) % (d.Size() - 64*LineSize) &^ (LineSize - 1)
	for l := 0; l < 32; l++ {
		d.Store64(base+l*LineSize, uint64(i))
		if l%2 == 0 {
			d.Pwb(base + l*LineSize)
		}
	}
}

const benchDevice = 16 << 20

func reportPerMiB(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(benchDevice>>20), "ns/MiB")
}

func BenchmarkCrash(b *testing.B) {
	d := New(benchDevice, ModelDRAM)
	for i := 0; i < b.N; i++ {
		benchPending(d, i)
		d.Crash(DropAll)
	}
	reportPerMiB(b)
}

func BenchmarkCrashImage(b *testing.B) {
	d := New(benchDevice, ModelDRAM)
	benchPending(d, 1)
	for i := 0; i < b.N; i++ {
		sinkImage = d.CrashImage(KeepQueued)
	}
	reportPerMiB(b)
}

// BenchmarkFromImage times the restart copy alone. The previous device is
// collected outside the timing, so each one takes over its mapping already
// paged in, as a restart after the first does, instead of paying a fresh
// mapping's page faults.
func BenchmarkFromImage(b *testing.B) {
	img := New(benchDevice, ModelDRAM).Persisted()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sinkDevice = nil
		runtime.GC()
		b.StartTimer()
		sinkDevice = FromImage(img, ModelDRAM)
	}
	reportPerMiB(b)
}

var (
	sinkImage  []byte
	sinkDevice *Device
)
