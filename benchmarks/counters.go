package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// counters is everything the layers count about themselves through their
// public Stats(), plus the Go runtime's and the kernel's view of the process,
// read with the clients stopped. All of them only grow, so a phase's share is
// the difference of two readings.
type counters [nCounters]uint64

const (
	// pmem.Stats, every device of the store, coordinator included.
	cPwbs   = iota
	cFences // pfences + psyncs
	cLinesPersisted
	cBytesPersisted
	// ptm.TxStats and alloc.Stats, every shard's engine.
	cBatches
	cBatchOps
	cCombined
	cReplicatedBytes
	cReplicateExtents
	cHeapAllocs
	// server.GroupStats and shard.Stats.
	cGroupBatches
	cGroupOps
	cSoloRuns
	cXCommits
	// runtime.MemStats and getrusage.
	cMallocs
	cMallocBytes
	cGCCycles
	cGCPauseNs
	cCPUNs // user + system
	nCounters
)

// cpuNs is the process's user plus system CPU time.
func cpuNs() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s *system) snapshot() counters {
	var c counters
	for _, d := range s.st.Devices() {
		ds := d.Stats()
		c[cPwbs] += ds.Pwbs
		c[cFences] += ds.Pfences + ds.Psyncs
		c[cLinesPersisted] += ds.LinesPersisted
		c[cBytesPersisted] += ds.BytesPersisted
	}
	for i := 0; i < s.st.NumShards(); i++ {
		e := s.st.Engine(i)
		t := e.Stats()
		c[cBatches] += t.Batches
		c[cBatchOps] += t.BatchOps
		c[cCombined] += t.Combined
		c[cReplicatedBytes] += t.ReplicatedBytes
		c[cReplicateExtents] += t.ReplicateExtents
		c[cHeapAllocs] += e.AllocStats().Allocs
	}
	if s.srv != nil {
		g := s.srv.GroupCommitter().Stats()
		c[cGroupBatches], c[cGroupOps], c[cSoloRuns] = g.Batches, g.BatchOps, g.SoloRuns
	}
	c[cXCommits] = s.st.Stats().XCommits
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c[cMallocs], c[cMallocBytes] = m.Mallocs, m.TotalAlloc
	c[cGCCycles], c[cGCPauseNs] = uint64(m.NumGC), m.PauseTotalNs
	c[cCPUNs] = cpuNs()
	return c
}

// sub returns c - b; both must be readings of the same server, whose group
// counters start at zero.
func (c counters) sub(b counters) counters {
	for i := range c {
		c[i] -= b[i]
	}
	return c
}

// per is counter i per n of something, 0 when n is 0.
func (c counters) per(i int, n uint64) float64 { return div(float64(c[i]), float64(n)) }

// residentMiB is the process's resident set, 0 where /proc is missing.
func residentMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
