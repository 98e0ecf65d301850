package pmem

import "time"

// Model describes how the persistence primitives behave and what they cost.
// The five predefined models mirror the configurations evaluated in §6.6 of
// the paper (Figure 9).
type Model struct {
	// Name identifies the model in benchmark output.
	Name string
	// OrderedPwb marks write-backs as self-ordering and synchronous, like
	// CLFLUSH: the line is persisted at Pwb time and fences add nothing
	// (beyond their latency, which is zero for CLFLUSH).
	OrderedPwb bool
	// PwbLatency, PfenceLatency and PsyncLatency are injected busy-wait
	// delays per primitive, modelling slower media (STT-RAM, PCM).
	PwbLatency    time.Duration
	PfenceLatency time.Duration
	PsyncLatency  time.Duration
}

func (m Model) delayPwb(n int) { spin(time.Duration(n) * m.PwbLatency) }
func (m Model) delayPfence()   { spin(m.PfenceLatency) }
func (m Model) delayPsync()    { spin(m.PsyncLatency) }

// Predefined persistence models. Latencies for STT and PCM come from the
// paper (§6.1, citing Chauhan et al.): 140/200/200 ns and 340/500/500 ns for
// pwb/pfence/psync respectively.
var (
	// ModelCLWB: pwb maps to CLWB (unordered, cheap), fences to SFENCE.
	ModelCLWB = Model{Name: "clwb"}
	// ModelCLFLUSHOPT: pwb maps to CLFLUSHOPT (unordered, invalidating),
	// fences to SFENCE. Behaviourally identical to CLWB in this simulation;
	// kept separate so sweeps report both columns of Figure 9.
	ModelCLFLUSHOPT = Model{Name: "clflushopt"}
	// ModelCLFLUSH: pwb maps to CLFLUSH (ordered, synchronous), fences to
	// no-ops, the configuration of the paper's main test machine.
	ModelCLFLUSH = Model{Name: "clflush", OrderedPwb: true}
	// ModelSTT emulates STT-RAM media latency.
	ModelSTT = Model{
		Name:          "stt",
		PwbLatency:    140 * time.Nanosecond,
		PfenceLatency: 200 * time.Nanosecond,
		PsyncLatency:  200 * time.Nanosecond,
	}
	// ModelPCM emulates PCM media latency.
	ModelPCM = Model{
		Name:          "pcm",
		PwbLatency:    340 * time.Nanosecond,
		PfenceLatency: 500 * time.Nanosecond,
		PsyncLatency:  500 * time.Nanosecond,
	}
	// ModelDRAM is the default no-delay model used for the throughput
	// figures (supercapacitor-backed NVDIMMs, §6.1): unordered pwb, free
	// fences.
	ModelDRAM = Model{Name: "dram"}
)

// Models lists every predefined model in the order Figure 9 presents them.
var Models = []Model{ModelCLWB, ModelCLFLUSHOPT, ModelCLFLUSH, ModelSTT, ModelPCM}

// ModelByName returns the predefined model with the given name, or ok=false.
func ModelByName(name string) (Model, bool) {
	switch name {
	case "clwb":
		return ModelCLWB, true
	case "clflushopt":
		return ModelCLFLUSHOPT, true
	case "clflush":
		return ModelCLFLUSH, true
	case "stt":
		return ModelSTT, true
	case "pcm":
		return ModelPCM, true
	case "dram":
		return ModelDRAM, true
	}
	return Model{}, false
}
