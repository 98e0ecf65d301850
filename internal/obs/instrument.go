package obs

import (
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// SetDevices publishes the space gauges of the devices behind the registry,
// summed over them (a sharded store passes every shard's):
//
//	pmem_image_bytes    bytes of device image held, one image per device
//	pmem_pending_lines  cache lines stored but not written back when each
//	                    device last completed a write-back — the lines whose
//	                    old media contents the device still keeps beside the
//	                    image, and what a crash now would roll back
func SetDevices(set Setter, devs ...*pmem.Device) {
	var image, pending uint64
	for _, d := range devs {
		image += uint64(d.Size())
		pending += uint64(d.PendingLines())
	}
	set("pmem_image_bytes", image)
	set("pmem_pending_lines", pending)
}

// SetRecovery publishes the ptm_recovery_* gauges: the recovery work done by
// the last Open of each engine behind the registry, summed over them (one
// per shard for a sharded store), so a restart's cost — and whether it was
// proportional to the damage — is readable off /metrics:
//
//	ptm_recovery_pending         engines that found a non-idle state word
//	ptm_recovery_compared_bytes  bytes of twin prefix compared
//	ptm_recovery_lines           cache lines copied and written back
//	ptm_recovery_extents         contiguous runs those lines formed
//	ptm_recovery_ns              time spent recovering and verifying
func SetRecovery(set Setter, stats ...ptm.RecoveryStats) {
	var pending uint64
	var sum ptm.RecoveryStats
	for _, rs := range stats {
		if rs.State != 0 {
			pending++
		}
		sum.Compared += rs.Compared
		sum.Lines += rs.Lines
		sum.Extents += rs.Extents
		sum.Ns += rs.Ns
	}
	set("ptm_recovery_pending", pending)
	set("ptm_recovery_compared_bytes", sum.Compared)
	set("ptm_recovery_lines", sum.Lines)
	set("ptm_recovery_extents", sum.Extents)
	set("ptm_recovery_ns", sum.Ns)
}
