package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ptm"
)

// PwbHist reproduces the §6.2 analysis: the distribution of pwb
// instructions per update transaction on each data structure of keys
// entries (default 1,000), over opsPerDS updates each, measured on a
// RomulusLog engine. The paper reports an average of ~10 pwbs for the
// linked list and a dispersed histogram with peaks around 50 and 130 for
// the red-black tree (most of them issued by the memory allocator).
func PwbHist(keys, opsPerDS int) (string, error) {
	if keys == 0 {
		keys = 1000
	}
	var out strings.Builder
	for _, ds := range DSKinds {
		e, err := core.New(RegionFor(keys, 8), core.Config{Variant: core.RomLog})
		if err != nil {
			return "", err
		}
		d, err := NewDS(e, ds, keys, 0)
		if err != nil {
			return "", fmt.Errorf("pwbhist %s: %w", ds, err)
		}
		rng := rand.New(rand.NewSource(21))
		pc := &pwbCounter{Engine: e} // wraps only the measured updates, not the prefill
		for i := 0; i < opsPerDS; i++ {
			if err := d.Update(pc, uint64(rng.Intn(keys))); err != nil {
				return "", err
			}
		}
		s := pc.hist.Snapshot()
		fmt.Fprintf(&out, "pwbs per update transaction — %s (%d keys, steady state)\n", ds, keys)
		writeChart(&out, s)
		fmt.Fprintf(&out, "histogram peaks: %v\n\n", modes(s, 2, 16))
	}
	return out.String(), nil
}

// pwbCounter is an Engine whose Update adds to hist the pwbs its device
// issued during each committed call. With one goroutine updating, that is
// exactly the call's transaction: the device counts every pwb once.
type pwbCounter struct {
	Engine
	hist obs.Histogram
}

func (c *pwbCounter) Update(fn func(ptm.Tx) error) error {
	before := c.Device().Stats().Pwbs
	err := c.Engine.Update(fn)
	if err == nil {
		c.hist.Observe(c.Device().Stats().Pwbs - before)
	}
	return err
}

// writeChart renders a summary line and an ASCII bar chart of s over up to
// 16 equal ranges from 0 to the largest sample. A bucket wider than one
// value counts in the range of its upper edge.
func writeChart(b *strings.Builder, s obs.HistogramSnapshot) {
	if s.Count == 0 {
		b.WriteString("hist: empty\n")
		return
	}
	fmt.Fprintf(b, "n=%d mean=%.1f p50=%d p99=%d max=%d\n", s.Count, s.Mean, s.P50, s.P99, s.Max)
	hi := max(s.Max, 1)
	step := (hi + 15) / 16
	rows := make([]uint64, hi/step+1)
	var peak uint64
	for _, bk := range s.Buckets {
		r := min(bk.Le, hi) / step
		rows[r] += bk.Count
		peak = max(peak, rows[r])
	}
	for i, c := range rows {
		lo := uint64(i) * step
		fmt.Fprintf(b, "%5d-%-5d %8d %s\n", lo, lo+step-1, c, strings.Repeat("#", int(c*40/peak)))
	}
}

// modes returns up to n local peaks of the distribution: bucket edges with
// the highest counts, at least minGap apart, largest count first. This is
// what surfaces the paper's "two peaks at 50 and 130" observation.
func modes(s obs.HistogramSnapshot, n int, minGap uint64) []uint64 {
	all := append([]obs.BucketCount(nil), s.Buckets...)
	var out []uint64
	for len(out) < n && len(all) > 0 {
		best := 0
		for i, bk := range all {
			if bk.Count > all[best].Count {
				best = i
			}
		}
		cand := all[best].Le
		all = append(all[:best], all[best+1:]...)
		if !slices.ContainsFunc(out, func(m uint64) bool { return max(cand, m)-min(cand, m) < minGap }) {
			out = append(out, cand)
		}
	}
	return out
}
