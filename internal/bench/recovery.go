package bench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/pstruct"
	"repro/internal/ptm"
)

// RecoveryResult is one §6.5 data point: how long recovery takes after a
// mid-transaction crash, as a function of how much data lives in the region,
// for the paper's whole-prefix copy (FullCopy — back copied over main up to
// the used watermark) and for this repository's diff copy (DiffCopy — the
// same prefix compared, only the lines the crash left different copied).
type RecoveryResult struct {
	Entries   int
	Watermark int // bytes of twin prefix recovery covers
	FullCopy  time.Duration
	DiffCopy  time.Duration
	Repaired  ptm.RecoveryStats // what the diff copy found and repaired
}

// Recovery renders the §6.5 table: MeasureRecovery at each population in
// sizes (default 1,000 to 1,000,000 by powers of ten), with the bandwidth
// each copy strategy achieved over the recovered prefix.
func Recovery(sizes []int) (string, error) {
	if len(sizes) == 0 {
		sizes = []int{1000, 10_000, 100_000, 1_000_000}
	}
	t := NewTable("entries", "prefix bytes", "full copy", "GB/s", "diff copy", "GB/s", "lines repaired")
	for _, n := range sizes {
		res, err := MeasureRecovery(n)
		if err != nil {
			return "", err
		}
		gbps := func(d time.Duration) float64 { return float64(res.Watermark) / d.Seconds() / 1e9 }
		t.Row(res.Entries, res.Watermark, res.FullCopy.String(), gbps(res.FullCopy),
			res.DiffCopy.String(), gbps(res.DiffCopy), res.Repaired.Lines)
	}
	return "Recovery cost (§6.5) — mid-transaction crash, RomulusLog\n" +
		"full copy = the paper's algorithm (whole prefix copied and written back);\n" +
		"diff copy = this repository's default (prefix compared, differing lines repaired)\n" + t.String(), nil
}

// MeasureRecovery populates a RomulusLog hash map with entries key-value
// pairs (16-byte keys, 100-byte values, as in the paper's measurement),
// crashes the engine in the middle of an update transaction, and times the
// recovery performed by Open on that crash image, once per copy strategy.
func MeasureRecovery(entries int) (RecoveryResult, error) {
	region := entries*360 + (8 << 20)
	e, err := core.New(region, core.Config{Variant: core.RomLog})
	if err != nil {
		return RecoveryResult{}, err
	}
	var m *pstruct.ByteMap
	if err := e.Update(func(tx ptm.Tx) error {
		mm, err := pstruct.NewByteMap(tx, 0, 0)
		m = mm
		return err
	}); err != nil {
		return RecoveryResult{}, err
	}
	val := make([]byte, 100)
	const batch = 512
	for lo := 0; lo < entries; lo += batch {
		hi := lo + batch
		if hi > entries {
			hi = entries
		}
		if err := e.Update(func(tx ptm.Tx) error {
			for i := lo; i < hi; i++ {
				if _, err := m.Put(tx, dbKey(i), val); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return RecoveryResult{}, fmt.Errorf("bench: recovery prefill: %w", err)
		}
	}
	// Crash mid-transaction: the first pwb publishes MUT, the second opens
	// the commit's flush burst — every store of the transaction has landed in
	// main by then — and the policy lets all of it reach the media. Recovery
	// finds MUT and has to bring main back to what back holds.
	dev := e.Device()
	var img []byte
	pwbs := 0
	dev.SetHooks(&pmem.Hooks{Pwb: func(uint64) {
		if pwbs++; pwbs == 2 {
			img = dev.CrashImage(pmem.CrashPolicy{QueuedPersistProb: 1, EvictDirtyProb: 1})
		}
	}})
	if err := e.Update(func(tx ptm.Tx) error {
		_, err := m.Put(tx, dbKey(0), bytes.Repeat([]byte{0xFF}, len(val)))
		return err
	}); err != nil {
		return RecoveryResult{}, err
	}
	dev.SetHooks(nil)
	if img == nil {
		return RecoveryResult{}, fmt.Errorf("bench: no crash image captured")
	}
	// Fastest of three opens per strategy: the first open of a process also
	// pays page faults and allocator warm-up that are not recovery.
	fastest := func(full bool) (best time.Duration, rs ptm.RecoveryStats, err error) {
		for rep := 0; rep < 3; rep++ {
			crashed := pmem.FromImage(img, pmem.ModelDRAM)
			start := time.Now()
			re, err := core.Open(crashed, core.Config{Variant: core.RomLog, FullReplicate: full})
			if err != nil {
				return 0, rs, err
			}
			if dur := time.Since(start); rep == 0 || dur < best {
				best, rs = dur, re.RecoveryStats()
			}
		}
		return best, rs, nil
	}
	res := RecoveryResult{Entries: entries}
	if res.FullCopy, _, err = fastest(true); err != nil {
		return RecoveryResult{}, err
	}
	if res.DiffCopy, res.Repaired, err = fastest(false); err != nil {
		return RecoveryResult{}, err
	}
	res.Watermark = int(res.Repaired.Compared)
	return res, nil
}
