package audit

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pmem"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The golden scenario uses named top-level helpers so the sampled call
// sites resolve to stable function names; with SampleEvery=1 every store
// is attributed and the whole report is deterministic.

// goldenCommitted runs a correctly fenced mini-commit: survives the crash.
func goldenCommitted(dev *pmem.Device, a *Auditor) {
	a.TxBegin("rom", "update")
	dev.Store64(0, 0x1111)
	dev.Pwb(0)
	dev.Pfence()
	a.DurablePoint("commit")
	a.TxEnd()
}

// goldenClaimed pwbs but never fences before claiming durability: the
// durable point flags it, and the crash loses it again.
func goldenClaimed(dev *pmem.Device, a *Auditor) {
	a.TxBegin("romlog", "update")
	dev.Store64(64, 0x2222)
	dev.Pwb(64)
	a.DurablePoint("commit")
	a.TxEnd()
}

// goldenInflight leaves a mid-transaction store unfenced: expected crash
// damage, no violation.
func goldenInflight(dev *pmem.Device, a *Auditor) {
	a.TxBegin("romlog", "update")
	dev.Store64(128, 0x3333)
}

// TestGoldenCrashReport pins the forensic report of a fixed scenario
// bit-for-bit. Run with -update to regenerate testdata/crash_report.json.
func TestGoldenCrashReport(t *testing.T) {
	dev := pmem.New(4096, pmem.ModelDRAM)
	a := New(dev)
	a.sampleEvery = 1
	a.Attach()

	goldenCommitted(dev, a)
	goldenClaimed(dev, a)
	goldenInflight(dev, a)
	// DropAll keeps the persisted view as it is: the image the crash leaves.
	rep := a.Forensics(dev.Persisted())
	dev.Crash(pmem.DropAll)
	var got bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "crash_report.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("crash report diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s", got.Bytes(), want)
	}
}
