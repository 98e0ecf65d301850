package pmem

import (
	"testing"
	"time"
)

// The injected media latencies must actually materialize: under the PCM
// model a pfence costs at least its configured 500 ns.
func TestLatencyInjection(t *testing.T) {
	d := New(4096, ModelPCM)
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		d.Pfence()
	}
	per := time.Since(start) / n
	if per < ModelPCM.PfenceLatency {
		t.Errorf("pfence cost %v under PCM, want >= %v", per, ModelPCM.PfenceLatency)
	}

	d2 := New(4096, ModelSTT)
	start = time.Now()
	for i := 0; i < n; i++ {
		d2.Store64(0, uint64(i))
		d2.Pwb(0)
	}
	per = time.Since(start) / n
	if per < ModelSTT.PwbLatency {
		t.Errorf("pwb cost %v under STT, want >= %v", per, ModelSTT.PwbLatency)
	}
}

// A run of write-backs is never cheaper than its lines asked for: on a
// hookless device, where the run pays its delay in one spin, a PwbRange over
// 64 lines under PCM takes at least 64 × PwbLatency. A lower bound, so a busy
// machine cannot fail it.
func TestPwbRangePaysEveryLine(t *testing.T) {
	const lines = 64
	d := New(lines*LineSize, ModelPCM)
	for i := 0; i < 20; i++ {
		d.Memset(0, byte(i), lines*LineSize)
		start := time.Now()
		d.PwbRange(0, lines*LineSize)
		if took, want := time.Since(start), lines*ModelPCM.PwbLatency; took < want {
			t.Fatalf("PwbRange over %d lines took %v under PCM, want >= %v", lines, took, want)
		}
		d.Pfence()
	}
}

// DRAM-like models must not inject delays. The models' delay functions are
// timed alone, so the check holds with or without the race detector's
// instrumentation of the device around them. The best of several runs of
// each must stay below the smallest latency a slow model injects, STT's
// 140 ns pwb: a call that injects nothing costs 2-3 ns, 30 ns under -race.
func TestNoLatencyUnderDRAM(t *testing.T) {
	const n, runs, bound = 10000, 5, 100 * time.Nanosecond
	for _, m := range []Model{ModelDRAM, ModelCLWB, ModelCLFLUSHOPT, ModelCLFLUSH} {
		for name, delay := range map[string]func(){
			"pwb": func() { m.delayPwb(1) }, "pfence": m.delayPfence, "psync": m.delayPsync,
		} {
			best := time.Duration(1<<63 - 1)
			for r := 0; r < runs; r++ {
				start := time.Now()
				for i := 0; i < n; i++ {
					delay()
				}
				best = min(best, time.Since(start)/n)
			}
			if best > bound {
				t.Errorf("%s model: %s delay costs %v, want <= %v (no injected latency)", m.Name, name, best, bound)
			}
		}
	}
}
