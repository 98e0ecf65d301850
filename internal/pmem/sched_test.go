package pmem

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// TestSchedulerCapturesAtTarget checks the scheduler captures exactly at
// the armed event and that the image reflects the media at that instant.
func TestSchedulerCapturesAtTarget(t *testing.T) {
	d := New(4096, ModelDRAM)
	s := NewScheduler(d)
	defer s.Detach()

	// Each iteration: one store event, one pwb event, one fence event.
	if !s.Arm(5, DropAll) {
		t.Fatal("arm refused with no budget set")
	}
	for i := 0; i < 4; i++ {
		d.Store64(i*64, uint64(i+1))
		d.Pwb(i * 64)
		d.Pfence()
	}
	imgs, ev := s.Images()
	if imgs == nil {
		t.Fatal("no image captured")
	}
	img := imgs[0]
	if ev != 5 {
		t.Fatalf("captured at event %d, want 5", ev)
	}
	// Event 5 is the pwb of iteration 1 (events 1,2,3 from iteration 0,
	// 4 = store, 5 = pwb). Under DropAll the pwb queued the line but no
	// fence ran, so word 64 must still be zero in the image while word 0
	// (fenced in iteration 0) must hold 1.
	rd := FromImage(img, ModelDRAM)
	if got := rd.Load64(0); got != 1 {
		t.Errorf("word 0 = %d, want 1 (fenced before crash)", got)
	}
	if got := rd.Load64(64); got != 0 {
		t.Errorf("word 64 = %d, want 0 (unfenced at crash)", got)
	}
	if s.Crashes() != 1 {
		t.Errorf("crashes = %d, want 1", s.Crashes())
	}
}

// TestSchedulerBudget checks the per-campaign crash budget bounds the number
// of captures across re-arms.
func TestSchedulerBudget(t *testing.T) {
	d := New(4096, ModelDRAM)
	s := NewScheduler(d)
	defer s.Detach()
	s.SetBudget(2)

	for i := 0; i < 2; i++ {
		if !s.Arm(1, KeepQueued) {
			t.Fatalf("arm %d refused within budget", i)
		}
		d.Store64(0, uint64(i))
		if !s.Captured() {
			t.Fatalf("arm %d did not fire", i)
		}
	}
	if s.Arm(1, KeepQueued) {
		t.Error("arm succeeded past budget")
	}
	if img := s.CaptureNow(KeepQueued); img != nil {
		t.Error("CaptureNow succeeded past budget")
	}
	if s.Crashes() != 2 {
		t.Errorf("crashes = %d, want 2", s.Crashes())
	}
}

// TestSchedulerRearmAcrossDevices exercises nested arming: a crash image is
// captured mid-write, and a second scheduler on the image's device captures
// again during the "recovery" writes — the crash-chain building block.
func TestSchedulerRearmAcrossDevices(t *testing.T) {
	d := New(4096, ModelDRAM)
	s := NewScheduler(d)
	s.Arm(2, DropAll)
	d.Store64(0, 7)
	d.Pwb(0)
	d.Pfence()
	imgs1, _ := s.Images()
	if imgs1 == nil {
		t.Fatal("first crash did not fire")
	}
	s.Detach()

	d2 := FromImage(imgs1[0], ModelDRAM)
	s2 := NewScheduler(d2)
	s2.Arm(3, KeepQueued)
	// Simulated recovery: rewrite and persist the word.
	d2.Store64(0, 7)
	d2.Pwb(0)
	d2.Pfence()
	imgs2, ev := s2.Images()
	if imgs2 == nil {
		t.Fatal("nested crash did not fire")
	}
	if ev != 3 {
		t.Errorf("nested crash at event %d, want 3", ev)
	}
	s2.Detach()
	d3 := FromImage(imgs2[0], ModelDRAM)
	if got := d3.Load64(0); got != 7 {
		t.Errorf("word 0 = %d after chained crash, want 7", got)
	}
}

// TestHookInstallRace arms and disarms schedulers and swaps raw hooks while
// a worker goroutine drives the data path. Run under -race this proves hook
// installation/invocation is race-safe (the concurrent harness depends on
// it). The single storing goroutine respects the device's one-mutator
// contract; only the hook slots are contended.
func TestHookInstallRace(t *testing.T) {
	d := New(1<<16, ModelDRAM)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			off := (i % 1024) * 64
			d.Store64(off, uint64(i))
			d.Pwb(off)
			if i%8 == 0 {
				d.Pfence()
			}
		}
	}()
	for round := 0; round < 200; round++ {
		s := NewScheduler(d)
		s.SetBudget(1)
		s.Arm(uint64(1+round%32), DropAll)
		if round%3 == 0 {
			s.Captured() // control-plane reads race-free too
			s.Events()
		}
		s.Disarm()
		s.Detach()
		// Raw hook churn as well.
		d.SetHooks(&Hooks{
			Store: func(uint64) {},
			Pwb:   func(uint64) {},
			Fence: func() {},
		})
		d.SetHooks(nil)
	}
	close(stop)
	wg.Wait()
}

// TestSchedulerConcurrentArmCapture checks an Arm from the harness
// goroutine concurrent with events on a worker goroutine still yields a
// valid capture (and never a torn image slot).
func TestSchedulerConcurrentArmCapture(t *testing.T) {
	d := New(1<<14, ModelDRAM)
	s := NewScheduler(d)
	defer s.Detach()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			d.Store64((i%128)*64, uint64(i))
			if i%64 == 63 {
				runtime.Gosched() // keep the harness goroutine running on one CPU
			}
		}
	}()
	for round := 0; round < 100; round++ {
		s.Arm(3, KeepQueued)
		// The worker never stops storing, so the armed event always arrives;
		// wait for it rather than hoping a round's timing lets one land.
		for !s.Captured() {
			runtime.Gosched()
		}
		imgs, _ := s.Images()
		if len(imgs) != 1 || len(imgs[0]) != d.Size() {
			t.Fatalf("torn image slot: %d images, device %d bytes", len(imgs), d.Size())
		}
	}
	close(stop)
	wg.Wait()
}

// The TestMultiScheduler* cases drive one Scheduler over two devices (they
// predate the merge of the single- and multi-device schedulers and keep
// their names).

// TestMultiSchedulerSharedSequence pins that events on every member advance
// one shared counter and that the armed capture snapshots ALL members at the
// same instant, regardless of which member's primitive triggered it.
func TestMultiSchedulerSharedSequence(t *testing.T) {
	a := New(4*LineSize, ModelDRAM)
	b := New(4*LineSize, ModelDRAM)
	ms := NewScheduler(a, b)
	defer ms.Detach()

	// 3 events on a, then arm 2 ahead: the next event on EITHER member
	// counts, and the second one (a store on b) triggers the capture.
	a.Store64(0, 1)
	a.Pwb(0)
	a.Pfence()
	if got := ms.Events(); got != 3 {
		t.Fatalf("events after a's burst = %d, want 3", got)
	}
	ms.Arm(2, DropAll)
	a.Store64(64, 2) // event 4
	a.Pwb(64)        // event 5 — target reached, capture fires here
	if !ms.Captured() {
		t.Fatal("armed capture did not fire")
	}
	imgs, ev := ms.Images()
	if ev != 5 {
		t.Fatalf("capture event = %d, want 5", ev)
	}
	if len(imgs) != 2 {
		t.Fatalf("captured %d images, want 2", len(imgs))
	}
	// Under DropAll, a's fenced line 0 survives in a's image; the unfenced
	// store at 64 does not. b never fenced anything, so its image is zero.
	if v := load64(imgs[0], 0); v != 1 {
		t.Fatalf("member a image lost fenced data: %d", v)
	}
	if v := load64(imgs[0], 64); v != 0 {
		t.Fatalf("member a image kept unfenced store: %d", v)
	}
	if !bytes.Equal(imgs[1], make([]byte, b.Size())) {
		t.Fatal("member b image should be all-zero")
	}
}

// TestMultiSchedulerCapturesEveryMember pins that a capture triggered by one
// member reflects the exact durable state of the others at that moment.
func TestMultiSchedulerCapturesEveryMember(t *testing.T) {
	a := New(2*LineSize, ModelDRAM)
	b := New(2*LineSize, ModelDRAM)
	ms := NewScheduler(a, b)
	defer ms.Detach()

	// Persist 7 on b, then store-without-fence 9 on b, then trigger on a.
	b.Store64(0, 7)
	b.Pwb(0)
	b.Pfence()
	b.Store64(8, 9)
	ms.Arm(1, DropAll)
	a.Store64(0, 1) // trigger
	imgs, _ := ms.Images()
	if imgs == nil {
		t.Fatal("no capture")
	}
	if v := load64(imgs[1], 0); v != 7 {
		t.Fatalf("member b fenced word = %d, want 7", v)
	}
	if v := load64(imgs[1], 8); v != 0 {
		t.Fatalf("member b unfenced word leaked into DropAll image: %d", v)
	}
}

// TestMultiSchedulerBudget pins that the capture budget bounds Arm and
// CaptureNow across the whole member set.
func TestMultiSchedulerBudget(t *testing.T) {
	a := New(LineSize, ModelDRAM)
	b := New(LineSize, ModelDRAM)
	ms := NewScheduler(a, b)
	defer ms.Detach()
	ms.SetBudget(1)
	if imgs := ms.CaptureNow(DropAll); imgs == nil {
		t.Fatal("first capture should be within budget")
	}
	if ms.Arm(1, DropAll) {
		t.Fatal("Arm should fail once the budget is spent")
	}
	if imgs := ms.CaptureNow(DropAll); imgs != nil {
		t.Fatal("CaptureNow should fail once the budget is spent")
	}
}

func load64(img []byte, off int) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(img[off+i])
	}
	return v
}
