package audit

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/pmem"
)

// newAudited attaches an auditor to a fresh device; sampleEvery, when
// positive, replaces its call-site sample period.
func newAudited(t *testing.T, size int, model pmem.Model, sampleEvery int) (*pmem.Device, *Auditor) {
	t.Helper()
	dev := pmem.New(size, model)
	a := New(dev)
	if sampleEvery > 0 {
		a.sampleEvery = sampleEvery
	}
	a.Attach()
	return dev, a
}

// TestLineStateMachine walks one line through clean → dirty → queued →
// fenced and checks the shadow agrees at every step.
func TestLineStateMachine(t *testing.T) {
	dev, a := newAudited(t, 4096, pmem.ModelDRAM, 0)

	dev.Store64(0, 1)
	if tot := a.Totals(); tot.DirtyLines != 1 || tot.QueuedLines != 0 {
		t.Fatalf("after store: %+v", tot)
	}
	dev.Pwb(0)
	if tot := a.Totals(); tot.DirtyLines != 0 || tot.QueuedLines != 1 {
		t.Fatalf("after pwb: %+v", tot)
	}
	dev.Pfence()
	if tot := a.Totals(); tot.DirtyLines != 0 || tot.QueuedLines != 0 {
		t.Fatalf("after fence: %+v", tot)
	}
	if tot := a.Totals(); tot.PwbClean != 0 || tot.PwbRequeued != 0 || tot.StoreQueued != 0 || tot.FenceNoop != 0 {
		t.Fatalf("clean protocol produced waste: %+v", tot)
	}
	a.DurablePoint("commit")
	if n := a.ViolationCount(); n != 0 {
		t.Fatalf("clean durable point flagged %d violations: %+v", n, a.Violations())
	}
}

// TestOrderedModelPersistsAtPwb: under an ordered-pwb model there is no
// flush queue; a pwb takes the line straight to persistent.
func TestOrderedModelPersistsAtPwb(t *testing.T) {
	m := pmem.ModelDRAM
	m.OrderedPwb = true
	dev, a := newAudited(t, 4096, m, 0)
	dev.Store64(0, 1)
	dev.Pwb(0)
	if tot := a.Totals(); tot.DirtyLines != 0 || tot.QueuedLines != 0 {
		t.Fatalf("ordered pwb left line non-clean: %+v", tot)
	}
	a.DurablePoint("commit")
	if n := a.ViolationCount(); n != 0 {
		t.Fatalf("violations under ordered model: %d", n)
	}
}

// TestWasteCounters provokes each waste diagnostic exactly once.
func TestWasteCounters(t *testing.T) {
	dev, a := newAudited(t, 4096, pmem.ModelDRAM, 0)

	// pwb of a clean line.
	dev.Pwb(0)
	// fence with an empty queue (nothing was actually pwb'd above — the
	// line was clean — but the fence still saw one pwb instruction, so
	// issue a second, truly empty fence next).
	dev.Pfence() // 1 pwb since last fence: not a noop
	dev.Pfence() // 0 pwbs since last fence: noop

	// store on a queued line (between pwb and fence).
	dev.Store64(64, 1)
	dev.Pwb(64)
	dev.Store64(64, 2) // queued, not yet fenced
	dev.Pwb(64)        // necessary pwb, not waste
	dev.Pfence()

	// pwb of a line already queued and not re-dirtied.
	dev.Store64(128, 1)
	dev.Pwb(128)
	dev.Pwb(128) // redundant: already queued
	dev.Pfence()

	tot := a.Totals()
	if tot.PwbClean != 1 {
		t.Errorf("PwbClean = %d, want 1", tot.PwbClean)
	}
	if tot.FenceNoop != 1 {
		t.Errorf("FenceNoop = %d, want 1", tot.FenceNoop)
	}
	if tot.StoreQueued != 1 {
		t.Errorf("StoreQueued = %d, want 1", tot.StoreQueued)
	}
	if tot.PwbRequeued != 1 {
		t.Errorf("PwbRequeued = %d, want 1", tot.PwbRequeued)
	}
	if n := a.ViolationCount(); n != 0 {
		t.Errorf("waste is not a violation, got %d", n)
	}
}

// brokenCommit models an engine that skips the pwb of one of two modified
// lines before claiming durability — the defect class the auditor exists to
// catch, proving the zero-violations check is not vacuous.
func brokenCommit(dev *pmem.Device, a *Auditor) {
	a.TxBegin("broken", "update")
	dev.Store64(0, 0xA)
	dev.Store64(64, 0xB)
	dev.Pwb(0)
	// BUG: no Pwb(64).
	dev.Pfence()
	a.DurablePoint("commit")
	a.TxEnd()
}

// TestBrokenEngineFlagged: the deliberately-broken fixture must produce a
// durable-point violation naming the unflushed line with attribution.
func TestBrokenEngineFlagged(t *testing.T) {
	dev, a := newAudited(t, 4096, pmem.ModelDRAM, 1)
	brokenCommit(dev, a)
	if n := a.ViolationCount(); n != 1 {
		t.Fatalf("ViolationCount = %d, want 1", n)
	}
	v := a.Violations()[0]
	if v.Kind != "durable-point" || v.Line != 1 || v.State != "dirty" {
		t.Fatalf("violation = %+v", v)
	}
	if v.Engine != "broken" || v.TxKind != "update" {
		t.Fatalf("attribution = %q/%q, want broken/update", v.Engine, v.TxKind)
	}
	if !strings.Contains(v.Site, "brokenCommit") {
		t.Fatalf("site = %q, want it to name brokenCommit", v.Site)
	}
}

// TestCrashForensics: a durably-claimed but unfenced line lost at a crash
// is attributed and flagged; a merely in-flight line is reported as expected
// damage, not a violation.
func TestCrashForensics(t *testing.T) {
	dev, a := newAudited(t, 4096, pmem.ModelDRAM, 1)

	// Line 0: properly committed; survives.
	a.TxBegin("rom", "update")
	dev.Store64(0, 1)
	dev.Pwb(0)
	dev.Pfence()
	a.DurablePoint("commit")
	a.TxEnd()

	// Line 1: pwb'd but never fenced when the engine claims durability —
	// flagged at the durable point, and lost again at the crash.
	a.TxBegin("rom", "update")
	dev.Store64(64, 2)
	dev.Pwb(64)
	a.DurablePoint("commit")
	a.TxEnd()

	// Line 2: mid-transaction store, no durability claim covers it.
	a.TxBegin("rom", "update")
	dev.Store64(128, 3)

	dev.Crash(pmem.DropAll)
	rep := a.LastCrashReport()
	if rep == nil {
		t.Fatal("no crash report")
	}
	var lost1, lost2 *LostLine
	for i := range rep.Lost {
		switch rep.Lost[i].Line {
		case 0:
			t.Fatalf("fenced line 0 reported lost: %+v", rep.Lost[i])
		case 1:
			lost1 = &rep.Lost[i]
		case 2:
			lost2 = &rep.Lost[i]
		}
	}
	if lost1 == nil || !lost1.DurablyClaimed || lost1.State != "queued" {
		t.Fatalf("line 1: %+v", lost1)
	}
	if lost2 == nil || lost2.DurablyClaimed || lost2.State != "dirty" {
		t.Fatalf("line 2: %+v", lost2)
	}
	if lost1.Engine != "rom" || lost1.TxKind != "update" {
		t.Fatalf("line 1 attribution: %+v", lost1)
	}
	// One violation from the durable point, one from the crash loss.
	if n := a.ViolationCount(); n != 2 {
		t.Fatalf("ViolationCount = %d, want 2 (%+v)", n, a.Violations())
	}
	kinds := map[string]bool{}
	for _, v := range a.Violations() {
		kinds[v.Kind] = true
	}
	if !kinds["durable-point"] || !kinds["crash-loss"] {
		t.Fatalf("violation kinds = %v", kinds)
	}
	// The crash reset the shadow: the device is quiescent again.
	if tot := a.Totals(); tot.DirtyLines != 0 || tot.QueuedLines != 0 {
		t.Fatalf("shadow not reset after crash: %+v", tot)
	}
}

// TestEngineCloseViolation: a line claimed durable but still unflushed at
// close is flagged; a post-claim store (Romulus's IDL pattern) is exempt.
func TestEngineCloseViolation(t *testing.T) {
	dev, a := newAudited(t, 4096, pmem.ModelDRAM, 0)
	dev.Store64(0, 1)
	dev.Pfence() // noop fence; line 0 still dirty
	a.DurablePoint("commit")
	a.EngineClose("test")
	// Line 0 was dirty at both the durable point and close.
	var kinds []string
	for _, v := range a.Violations() {
		kinds = append(kinds, v.Kind)
	}
	if len(kinds) != 2 || kinds[0] != "durable-point" || kinds[1] != "close" {
		t.Fatalf("violation kinds = %v", kinds)
	}

	// Fresh auditor: store only after the durable point → exempt at close.
	dev2, a2 := newAudited(t, 4096, pmem.ModelDRAM, 0)
	a2.DurablePoint("commit")
	dev2.Store64(0, 7) // deliberate post-claim store, never flushed
	a2.EngineClose("test")
	if n := a2.ViolationCount(); n != 0 {
		t.Fatalf("post-claim store flagged at close: %+v", a2.Violations())
	}
}

// TestReportWriters: both renderings of a report succeed and mention the
// essential facts.
func TestReportWriters(t *testing.T) {
	dev, a := newAudited(t, 4096, pmem.ModelDRAM, 1)
	brokenCommit(dev, a)
	rep := a.Summary()
	var txt, js bytes.Buffer
	if err := rep.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "VIOLATION [durable-point]") {
		t.Errorf("text report missing violation:\n%s", txt.String())
	}
	if !strings.Contains(js.String(), `"kind": "durable-point"`) {
		t.Errorf("json report missing violation:\n%s", js.String())
	}
}

// TestConcurrentReaders runs a mutator thread against concurrent control-
// plane readers; meaningful only under -race, which the repo's test target
// enables.
func TestConcurrentReaders(t *testing.T) {
	dev, a := newAudited(t, 1<<16, pmem.ModelDRAM, 4)

	var mutators, readers sync.WaitGroup
	stop := make(chan struct{})
	// Mutators: the device requires external serialization of stores (as
	// the engines provide); a mutex stands in for the engine lock while
	// still exercising cross-goroutine handoff of the auditor.
	var devMu sync.Mutex
	for g := 0; g < 2; g++ {
		mutators.Add(1)
		go func(g int) {
			defer mutators.Done()
			for i := 0; i < 2000; i++ {
				devMu.Lock()
				a.TxBegin("race", "update")
				off := ((g*2000 + i) % 512) * pmem.LineSize
				dev.Store64(off, uint64(i))
				dev.Pwb(off)
				dev.Pfence()
				a.DurablePoint("commit")
				a.TxEnd()
				devMu.Unlock()
			}
		}(g)
	}
	// Readers: totals and summaries race the mutators.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = a.Totals()
				_ = a.Summary()
			}
		}()
	}
	mutators.Wait()
	close(stop)
	readers.Wait()
	if n := a.ViolationCount(); n != 0 {
		t.Fatalf("violations under concurrent clean protocol: %d", n)
	}
}
