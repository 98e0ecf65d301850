package obs

import (
	"testing"

	"repro/internal/pmem"
)

// TestInstrumentSpaceGauges pins the two space gauges: the image size, and
// the lines a fence left behind stored-but-unwritten, which only a
// write-back, a crash or PersistAll takes off the books.
func TestInstrumentSpaceGauges(t *testing.T) {
	d := pmem.New(64*pmem.LineSize, pmem.ModelCLWB)
	g := map[string]uint64{}
	set := func(name string, v uint64) { g[name] = v }
	for l := 0; l < 3; l++ {
		d.Store64(l*pmem.LineSize, 1)
	}
	d.Pwb(0)
	d.Pfence()
	SetDevices(set, d)
	if g["pmem_image_bytes"] != uint64(d.Size()) {
		t.Errorf("pmem_image_bytes = %d, want %d", g["pmem_image_bytes"], d.Size())
	}
	if g["pmem_pending_lines"] != 2 {
		t.Errorf("pmem_pending_lines = %d after a fence that wrote back 1 of 3 stored lines, want 2", g["pmem_pending_lines"])
	}
	d.Crash(pmem.DropAll)
	SetDevices(set, d)
	if n := g["pmem_pending_lines"]; n != 0 {
		t.Errorf("pmem_pending_lines = %d after a crash, want 0", n)
	}
	SetDevices(set, d, d)
	if g["pmem_image_bytes"] != 2*uint64(d.Size()) {
		t.Errorf("SetDevices over two devices published %d image bytes, want the sum %d", g["pmem_image_bytes"], 2*d.Size())
	}
}
