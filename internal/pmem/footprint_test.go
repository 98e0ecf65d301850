package pmem

import (
	"runtime"
	"testing"
)

// liveHeap is the heap in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestDeviceFootprint pins the space account: a device keeps one image plus
// per-line state worth a few percent of it (a slot index, two bits), and a
// shadow sized to the lines in flight — not a second image.
func TestDeviceFootprint(t *testing.T) {
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
	if grown > 1.10 {
		t.Errorf("a %d MiB device holds %.3fx its size in heap, want <= 1.10x", size>>20, grown)
	}
	t.Logf("device heap = %.3fx image", grown)
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

func BenchmarkFromImage(b *testing.B) {
	img := New(benchDevice, ModelDRAM).Persisted()
	for i := 0; i < b.N; i++ {
		sinkDevice = FromImage(img, ModelDRAM)
	}
	reportPerMiB(b)
}

var (
	sinkImage  []byte
	sinkDevice *Device
)
