package obs

import (
	"repro/internal/hist"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// Instrument attaches dev to the registry: a collector publishes the
// device's persistence counters as the canonical pmem_* metric set on
// every snapshot. The data path pays nothing — the device already
// maintains these counters atomically — and the device's hook slot stays
// free for crash schedulers.
//
// Metrics published (see docs/OBSERVABILITY.md):
//
//	pmem_store_total, pmem_store_bytes_total, pmem_pwb_total,
//	pmem_pfence_total, pmem_psync_total, pmem_fence_total,
//	pmem_line_persisted_total, pmem_persisted_bytes_total
//
// plus the pmem_image_bytes and pmem_pending_lines gauges (SetDevices).
//
// Counters reflect the device since its last ResetStats; reset the device
// after setup work to scope metrics to the measured workload.
func Instrument(dev *pmem.Device, r *Registry) {
	r.Collect(func(set Setter) {
		SetDevices(set, dev)
		s := dev.Stats()
		set("pmem_store_total", s.Stores)
		set("pmem_store_bytes_total", s.BytesStored)
		set("pmem_pwb_total", s.Pwbs)
		set("pmem_pfence_total", s.Pfences)
		set("pmem_psync_total", s.Psyncs)
		set("pmem_fence_total", s.Pfences+s.Psyncs)
		set("pmem_line_persisted_total", s.LinesPersisted)
		set("pmem_persisted_bytes_total", s.BytesPersisted)
	})
}

// SetDevices publishes the space gauges of the devices behind the registry,
// summed over them (one for a bare engine; a sharded store passes every
// shard's):
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

// InstrumentPTM attaches an engine's transaction counters to the registry
// under the canonical ptm_* names, again as a zero-overhead collector:
//
//	ptm_update_tx_total, ptm_read_tx_total, ptm_abort_total,
//	ptm_rollback_total, ptm_combined_total, ptm_batch_total,
//	ptm_batch_ops_total, ptm_batch_combine_ns_total,
//	ptm_replicate_bytes_total, ptm_replicate_extent_total
//
// plus, for engines implementing RecoveryReporter, the ptm_recovery_* gauges
// (SetRecovery).
//
// Every engine in the repository reports the same schema, so tools can
// compare engines without per-engine cases. The ptm_batch_* gauges stay zero
// for engines without a flat-combined batch commit path, and the
// ptm_replicate_* gauges for engines without a twin-copy replication step.
//
// Engines that additionally expose their exact per-transaction pwb
// histogram (PwbHistogrammer — the core Romulus engines) also publish its
// shape as ptm_tx_pwb_p50, ptm_tx_pwb_p90, ptm_tx_pwb_p99 and
// ptm_tx_pwb_max, the distribution view behind the paper's §6.2 analysis —
// a collapsed write-amplification fix shows up here as the p99 falling to
// the dirty-line count rather than the watermark's line count.
func InstrumentPTM(e ptm.PTM, r *Registry) {
	ph, _ := e.(PwbHistogrammer)
	rr, _ := e.(RecoveryReporter)
	r.Collect(func(set Setter) {
		if rr != nil {
			SetRecovery(set, rr.RecoveryStats())
		}
		s := e.Stats()
		set("ptm_update_tx_total", s.UpdateTxs)
		set("ptm_read_tx_total", s.ReadTxs)
		set("ptm_abort_total", s.Aborts)
		set("ptm_rollback_total", s.Rollbacks)
		set("ptm_combined_total", s.Combined)
		set("ptm_batch_total", s.Batches)
		set("ptm_batch_ops_total", s.BatchOps)
		set("ptm_batch_combine_ns_total", s.CombineNs)
		set("ptm_replicate_bytes_total", s.ReplicatedBytes)
		set("ptm_replicate_extent_total", s.ReplicateExtents)
		if ph != nil {
			h := ph.PwbHistogram()
			if h.Count() > 0 {
				set("ptm_tx_pwb_p50", h.Quantile(0.50))
				set("ptm_tx_pwb_p90", h.Quantile(0.90))
				set("ptm_tx_pwb_p99", h.Quantile(0.99))
				set("ptm_tx_pwb_max", h.Max())
			}
		}
	})
}

// PwbHistogrammer is implemented by engines that keep an exact histogram of
// pwb instructions issued per committed update transaction (the core
// Romulus engines). InstrumentPTM publishes its quantiles as the
// ptm_tx_pwb_* series. The histogram is read when the registry snapshots;
// engines that only tolerate quiescent reads (the core engines update the
// histogram from the single writer without synchronization) inherit the
// registry owner's obligation to snapshot at quiescent points, which is
// when every in-repo harness does.
type PwbHistogrammer interface {
	PwbHistogram() hist.Histogram
}

// RecoveryReporter is implemented by engines that record what the Open
// that built them found on the media and repaired (the core Romulus
// engines).
type RecoveryReporter interface {
	RecoveryStats() ptm.RecoveryStats
}

// SetRecovery publishes the ptm_recovery_* gauges: the recovery work done by
// the last Open of each engine behind the registry, summed over them (one
// for a bare engine, one per shard for a sharded store), so a restart's cost
// — and whether it was proportional to the damage — is readable off /metrics:
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

// Traceable is implemented by every engine that can emit per-transaction
// trace events. SetTrace must be called at a quiescent point (no
// transactions in flight); a nil sink disables tracing.
type Traceable interface {
	SetTrace(Sink)
}
