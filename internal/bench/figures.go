package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/pmem"
)

// FigOptions parameterize the figure reproductions. Zero values select the
// paper's settings scaled to a quick run; romulus-bench exposes flags for
// full-fidelity sweeps.
type FigOptions struct {
	Engines  []string
	Threads  []int
	Duration time.Duration
	Keys     int
	Model    pmem.Model
}

func (o *FigOptions) defaults(keys int, threads []int) {
	if len(o.Engines) == 0 {
		o.Engines = EngineKinds
	}
	if len(o.Threads) == 0 {
		o.Threads = threads
	}
	if o.Duration == 0 {
		o.Duration = 500 * time.Millisecond
	}
	if o.Keys == 0 {
		o.Keys = keys
	}
	if o.Model.Name == "" {
		o.Model = pmem.ModelDRAM
	}
}

// Fig4 reproduces Figure 4: update-only and read-only throughput on the
// linked list, hash map and red-black tree with 1,000 entries, per engine
// and thread count.
func Fig4(o FigOptions) (string, error) {
	o.defaults(1000, []int{1, 2, 4, 8})
	var out strings.Builder
	for _, workload := range []string{"writes", "reads"} {
		for _, ds := range DSKinds {
			t := newTable(append([]string{"engine \\ threads"}, intHeaders(o.Threads)...)...)
			for _, kind := range o.Engines {
				// One engine per (kind, structure): the update workload
				// keeps the population invariant, so thread counts can
				// share the prefilled structure.
				e, err := NewEngine(kind, RegionFor(o.Keys, 8), o.Model)
				if err != nil {
					return "", err
				}
				d, err := NewDS(e, ds, o.Keys, 0)
				if err != nil {
					return "", fmt.Errorf("fig4 %s/%s: %w", kind, ds, err)
				}
				row := []any{kind}
				for _, threads := range o.Threads {
					var res MixedResult
					if workload == "writes" {
						res, err = RunMixed(e, d, threads, 0, o.Keys, o.Duration)
					} else {
						res, err = RunMixed(e, d, 0, threads, o.Keys, o.Duration)
					}
					if err != nil {
						return "", fmt.Errorf("fig4 %s/%s: %w", kind, ds, err)
					}
					if workload == "writes" {
						row = append(row, res.WriteTxPerSec)
					} else {
						row = append(row, res.ReadTxPerSec)
					}
				}
				t.row(row...)
			}
			fmt.Fprintf(&out, "Figure 4 — %s: %s (TX/s, %d keys)\n%s\n", workload, ds, o.Keys, t)
		}
	}
	return out.String(), nil
}

// Fig5 reproduces Figure 5: speedup of a 2,048-bucket fixed hash map with
// 100 entries relative to single-threaded PMDK, for value sizes 8, 64, 256
// and 1,024 bytes.
func Fig5(o FigOptions) (string, error) {
	o.defaults(100, []int{1, 2, 4, 8})
	sizes := []int{8, 64, 256, 1024}
	var out strings.Builder
	for _, valSize := range sizes {
		// Baseline: PMDK at one thread.
		base, err := fig5Point("pmdk", 1, o, valSize)
		if err != nil {
			return "", err
		}
		t := newTable(append([]string{"engine \\ threads"}, intHeaders(o.Threads)...)...)
		for _, kind := range []string{"romlog", "mne", "pmdk"} {
			if !contains(o.Engines, kind) {
				continue
			}
			row := []any{kind}
			for _, threads := range o.Threads {
				tput, err := fig5Point(kind, threads, o, valSize)
				if err != nil {
					return "", err
				}
				row = append(row, tput/base)
			}
			t.row(row...)
		}
		fmt.Fprintf(&out, "Figure 5 — %d-byte values (speedup vs 1-thread pmdk = 1.0)\n%s\n", valSize, t)
	}
	return out.String(), nil
}

func fig5Point(kind string, threads int, o FigOptions, valSize int) (float64, error) {
	e, err := NewEngine(kind, RegionFor(o.Keys, valSize)+2048*16, o.Model)
	if err != nil {
		return 0, err
	}
	d, err := NewDS(e, "fixed", o.Keys, valSize)
	if err != nil {
		return 0, fmt.Errorf("fig5 %s: %w", kind, err)
	}
	res, err := RunMixed(e, d, threads, 0, o.Keys, o.Duration)
	if err != nil {
		return 0, fmt.Errorf("fig5 %s: %w", kind, err)
	}
	return res.WriteTxPerSec, nil
}

// Fig6 reproduces Figure 6: update-only throughput on the resizable hash
// map with 10K, 100K and 1M keys. The default engine list omits Mnemosyne
// exactly as the paper does (its transactions cannot allocate such large
// amounts); an explicit list is run as given.
func Fig6(o FigOptions, sizes []int) (string, error) {
	if len(o.Engines) == 0 {
		o.Engines = []string{"rom", "romlog", "romlr", "pmdk"}
	}
	o.defaults(0, []int{1, 2, 4, 8})
	if len(sizes) == 0 {
		sizes = []int{10_000, 100_000, 1_000_000}
	}
	var out strings.Builder
	for _, keys := range sizes {
		t := newTable(append([]string{"engine \\ threads"}, intHeaders(o.Threads)...)...)
		for _, kind := range o.Engines {
			e, err := NewEngine(kind, RegionFor(keys, 8), o.Model)
			if err != nil {
				return "", err
			}
			d, err := NewDS(e, "hash", keys, 0)
			if err != nil {
				return "", fmt.Errorf("fig6 %s/%d: %w", kind, keys, err)
			}
			row := []any{kind}
			for _, threads := range o.Threads {
				res, err := RunMixed(e, d, threads, 0, keys, o.Duration)
				if err != nil {
					return "", fmt.Errorf("fig6 %s/%d: %w", kind, keys, err)
				}
				row = append(row, res.WriteTxPerSec)
			}
			t.row(row...)
		}
		fmt.Fprintf(&out, "Figure 6 — hash map, 100%% writes, %d keys (TX/s)\n%s\n", keys, t)
	}
	return out.String(), nil
}

// Fig7 reproduces Figure 7: read and write throughput on a 1,000-key hash
// map with two concurrent writers (left plot) and with none (right plot),
// as the reader count grows. The PMDK row demonstrates reader-preference
// writer starvation.
func Fig7(o FigOptions) (string, error) {
	o.defaults(1000, []int{2, 4, 8})
	var out strings.Builder
	for _, writers := range []int{2, 0} {
		t := newTable(append([]string{"engine \\ readers"}, intHeaders(o.Threads)...)...)
		tw := newTable(append([]string{"engine \\ readers"}, intHeaders(o.Threads)...)...)
		for _, kind := range o.Engines {
			e, err := NewEngine(kind, RegionFor(o.Keys, 8), o.Model)
			if err != nil {
				return "", err
			}
			d, err := NewDS(e, "hash", o.Keys, 0)
			if err != nil {
				return "", fmt.Errorf("fig7 %s: %w", kind, err)
			}
			row := []any{kind}
			roww := []any{kind}
			for _, readers := range o.Threads {
				res, err := RunMixed(e, d, writers, readers, o.Keys, o.Duration)
				if err != nil {
					return "", fmt.Errorf("fig7 %s: %w", kind, err)
				}
				row = append(row, res.ReadTxPerSec)
				roww = append(roww, res.WriteTxPerSec)
			}
			t.row(row...)
			if writers > 0 {
				tw.row(roww...)
			}
		}
		if writers > 0 {
			fmt.Fprintf(&out, "Figure 7 (left) — read TX/s with %d concurrent writers\n%s\n", writers, t)
			fmt.Fprintf(&out, "Figure 7 (left) — write TX/s with %d writers\n%s\n", writers, tw)
		} else {
			fmt.Fprintf(&out, "Figure 7 (right) — read TX/s, no writers\n%s\n", t)
		}
	}
	return out.String(), nil
}

// Fig9 reproduces Figure 9: the SPS benchmark across fence models and
// transaction sizes.
func Fig9(o FigOptions, swapsPerTx []int, models []pmem.Model) (string, error) {
	o.defaults(0, nil)
	if len(swapsPerTx) == 0 {
		swapsPerTx = []int{1, 4, 8, 16, 32, 64, 128, 256, 1024}
	}
	if len(models) == 0 {
		models = pmem.Models
	}
	var out strings.Builder
	for _, model := range models {
		t := newTable(append([]string{"engine \\ swaps/tx"}, intHeaders(swapsPerTx)...)...)
		for _, kind := range o.Engines {
			row := []any{kind}
			for _, swaps := range swapsPerTx {
				e, err := NewEngine(kind, (10_000*8)+(8<<20), model)
				if err != nil {
					return "", err
				}
				v, err := runSPS(e, 10_000, swaps, o.Duration)
				if err != nil {
					return "", fmt.Errorf("fig9 %s/%s: %w", kind, model.Name, err)
				}
				row = append(row, v)
			}
			t.row(row...)
		}
		fmt.Fprintf(&out, "Figure 9 — SPS, %s (swaps/µs, single thread)\n%s\n", model.Name, t)
	}
	return out.String(), nil
}

func intHeaders(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
