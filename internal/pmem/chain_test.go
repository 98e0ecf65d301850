package pmem

import (
	"testing"
)

// TestChainHooksDegenerate pins the pass-through cases: no usable bundles
// yield nil, a single bundle is returned unwrapped.
func TestChainHooksDegenerate(t *testing.T) {
	if got := ChainHooks(); got != nil {
		t.Fatalf("ChainHooks() = %v, want nil", got)
	}
	if got := ChainHooks(nil, nil); got != nil {
		t.Fatalf("ChainHooks(nil, nil) = %v, want nil", got)
	}
	h := &Hooks{Fence: func() {}}
	if got := ChainHooks(nil, h, nil); got != h {
		t.Fatalf("ChainHooks with one usable bundle should return it unwrapped")
	}
}

// TestChainHooksOrder verifies every callback kind fires once per bundle, in
// argument order, with the event's arguments intact.
func TestChainHooksOrder(t *testing.T) {
	var log []string
	mk := func(tag string) *Hooks {
		return &Hooks{
			Store:   func(n uint64) { log = append(log, tag+"-store") },
			Pwb:     func(n uint64) { log = append(log, tag+"-pwb") },
			Fence:   func() { log = append(log, tag+"-fence") },
			StoreAt: func(off, n int) { log = append(log, tag+"-storeat") },
			PwbAt:   func(off int) { log = append(log, tag+"-pwbat") },
			Crash:   func() { log = append(log, tag+"-crash") },
		}
	}
	c := ChainHooks(mk("a"), nil, mk("b"))
	c.StoreAt(0, 8)
	c.Store(1)
	c.PwbAt(0)
	c.Pwb(1)
	c.Fence()
	c.Crash()
	want := []string{
		"a-storeat", "b-storeat", "a-store", "b-store",
		"a-pwbat", "b-pwbat", "a-pwb", "b-pwb",
		"a-fence", "b-fence", "a-crash", "b-crash",
	}
	if len(log) != len(want) {
		t.Fatalf("got %d hook calls %v, want %d", len(log), log, len(want))
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("call %d = %q, want %q (full: %v)", i, log[i], want[i], log)
		}
	}
}

// TestChainHooksPartial checks that a bundle missing some callbacks does not
// suppress the other bundle's, and that absent kinds stay nil.
func TestChainHooksPartial(t *testing.T) {
	var fences, stores int
	a := &Hooks{Fence: func() { fences++ }}
	b := &Hooks{Fence: func() { fences++ }, Store: func(uint64) { stores++ }}
	c := ChainHooks(a, b)
	c.Fence()
	c.Store(1)
	if fences != 2 || stores != 1 {
		t.Fatalf("fences=%d stores=%d, want 2 and 1", fences, stores)
	}
	if c.Pwb != nil || c.StoreAt != nil || c.PwbAt != nil || c.Crash != nil {
		t.Fatalf("callback kinds absent from every bundle must stay nil")
	}
}

// TestChainHooksWithScheduler drives a device with an observer chained
// before a Scheduler: the scheduler still counts events and captures, and
// the observer sees the same event stream.
func TestChainHooksWithScheduler(t *testing.T) {
	dev := New(4096, ModelDRAM)
	sched := NewScheduler(dev)
	var storeAts, pwbAts, fences int
	obs := &Hooks{
		StoreAt: func(off, n int) { storeAts++ },
		PwbAt:   func(off int) { pwbAts++ },
		Fence:   func() { fences++ },
	}
	dev.SetHooks(ChainHooks(obs, sched.Hooks(0)))

	sched.Arm(3, DropAll)
	dev.Store64(0, 1) // event 1
	dev.Pwb(0)        // event 2
	dev.Pfence()      // event 3: capture fires here
	if !sched.Captured() {
		t.Fatalf("scheduler did not capture through chained hooks")
	}
	if ev := sched.Events(); ev != 3 {
		t.Fatalf("scheduler counted %d events, want 3", ev)
	}
	if storeAts != 1 || pwbAts != 1 || fences != 1 {
		t.Fatalf("observer saw store=%d pwb=%d fence=%d, want 1 each", storeAts, pwbAts, fences)
	}
	imgs, ev := sched.Images()
	if imgs == nil || ev != 3 {
		t.Fatalf("Images() = (%v, %d), want captured image at event 3", imgs != nil, ev)
	}
}
