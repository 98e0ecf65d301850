// Benchmarks mirroring every table and figure of the paper's evaluation
// (§6), one Benchmark* family each, plus ablations of the design choices
// called out in DESIGN.md. These run at reduced scale so `go test -bench=.`
// finishes in minutes; the cmd/ tools perform the full-fidelity sweeps and
// EXPERIMENTS.md records their output.
package romulus_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/ptm"
)

// benchEngine builds an engine or fails the benchmark.
func benchEngine(b *testing.B, kind string, region int, model pmem.Model) bench.Engine {
	b.Helper()
	e, err := bench.NewEngine(kind, region, model)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkTable1 measures the per-transaction persistence costs of
// Table 1: a 64-store transaction on every engine, reporting fences and
// write-back counts per transaction as custom metrics.
func BenchmarkTable1(b *testing.B) {
	const stores = 64
	for _, kind := range bench.EngineKinds {
		b.Run(kind, func(b *testing.B) {
			e := benchEngine(b, kind, 8<<20, pmem.ModelDRAM)
			var buf ptm.Ptr
			if err := e.Update(func(tx ptm.Tx) error {
				var err error
				buf, err = tx.Alloc(stores * 8)
				return err
			}); err != nil {
				b.Fatal(err)
			}
			e.Device().ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Update(func(tx ptm.Tx) error {
					for s := 0; s < stores; s++ {
						tx.Store64(buf+ptm.Ptr(s*8), uint64(i+s))
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := e.Device().Stats()
			b.ReportMetric(float64(st.Pfences+st.Psyncs)/float64(b.N), "fences/tx")
			b.ReportMetric(float64(st.Pwbs)/float64(b.N), "pwbs/tx")
			b.ReportMetric(float64(st.BytesPersisted)/float64(b.N)/float64(stores*8), "persistedB/userB")
		})
	}
}

// BenchmarkFig4 is the Figure 4 workload at one thread: update operations
// (remove+insert, two transactions) and read operations (two lookups) on
// the three data structures with 1,000 keys, across all engines.
func BenchmarkFig4(b *testing.B) {
	for _, workload := range []string{"writes", "reads"} {
		for _, ds := range bench.DSKinds {
			for _, kind := range bench.EngineKinds {
				b.Run(fmt.Sprintf("%s/%s/%s", workload, ds, kind), func(b *testing.B) {
					e := benchEngine(b, kind, bench.RegionFor(1000, 8), pmem.ModelDRAM)
					d, err := bench.NewDS(e, ds, 1000, 0)
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						key := uint64(i*2654435761) % 1000
						if workload == "writes" {
							err = d.Update(e, key)
						} else {
							err = d.Read(e, key)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig5 is the Figure 5 workload: update operations on the fixed
// 2,048-bucket hash map with 100 entries, across value sizes.
func BenchmarkFig5(b *testing.B) {
	for _, valSize := range []int{8, 64, 256, 1024} {
		for _, kind := range []string{"romlog", "mne", "pmdk"} {
			b.Run(fmt.Sprintf("%dB/%s", valSize, kind), func(b *testing.B) {
				e := benchEngine(b, kind, bench.RegionFor(100, valSize)+2048*16, pmem.ModelDRAM)
				d, err := bench.NewDS(e, "fixed", 100, valSize)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(valSize))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := d.Update(e, uint64(i)%100); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6 is the Figure 6 workload: update operations on the
// resizable hash map as the population grows. The basic Rom engine's
// full-region replication is the expected outlier. (The benchmark caps at
// 100K keys; cmd/romulus-bench -fig 6 runs the 1M point.)
func BenchmarkFig6(b *testing.B) {
	for _, keys := range []int{10_000, 100_000} {
		for _, kind := range []string{"rom", "romlog", "romlr", "pmdk"} {
			b.Run(fmt.Sprintf("%dk/%s", keys/1000, kind), func(b *testing.B) {
				e := benchEngine(b, kind, bench.RegionFor(keys, 8), pmem.ModelDRAM)
				d, err := bench.NewDS(e, "hash", keys, 0)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := d.Update(e, uint64(i*2654435761)%uint64(keys)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig7 is the Figure 7 workload: read throughput under concurrent
// writers. It uses the duration-driven harness once per benchmark
// iteration and reports transactions per second as custom metrics.
func BenchmarkFig7(b *testing.B) {
	for _, kind := range bench.EngineKinds {
		b.Run(kind, func(b *testing.B) {
			var readTx, writeTx float64
			for i := 0; i < b.N; i++ {
				e := benchEngine(b, kind, bench.RegionFor(1000, 8), pmem.ModelDRAM)
				d, err := bench.NewDS(e, "hash", 1000, 0)
				if err != nil {
					b.Fatal(err)
				}
				res, err := bench.RunMixed(e, d, 2, 4, 1000, 100*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				readTx, writeTx = res.ReadTxPerSec, res.WriteTxPerSec
			}
			b.ReportMetric(readTx, "readTX/s")
			b.ReportMetric(writeTx, "writeTX/s")
		})
	}
}

// BenchmarkFig8 is the Figure 8 workload family on both stores at benchmark
// scale (single thread; romulus-bench -fig 8 sweeps threads and scale).
func BenchmarkFig8(b *testing.B) {
	for _, db := range []string{"romdb", "leveldb"} {
		for _, w := range bench.DBWorkloads {
			b.Run(fmt.Sprintf("%s/%s", w, db), func(b *testing.B) {
				var micros float64
				for i := 0; i < b.N; i++ {
					res, err := bench.RunDBBench(db, w, b.TempDir(), 1, 2000)
					if err != nil {
						b.Fatal(err)
					}
					micros = res.MicrosPerOp
				}
				b.ReportMetric(micros, "µs/op")
			})
		}
	}
}

// BenchmarkFig9 is the SPS microbenchmark of Figure 9 across transaction
// sizes, under the CLFLUSH model (the paper's main machine) and the PCM
// latency model. Reported ns/op is per swap.
func BenchmarkFig9(b *testing.B) {
	for _, model := range []pmem.Model{pmem.ModelCLFLUSH, pmem.ModelPCM} {
		for _, swaps := range []int{1, 8, 64, 1024} {
			for _, kind := range bench.EngineKinds {
				b.Run(fmt.Sprintf("%s/swaps%d/%s", model.Name, swaps, kind), func(b *testing.B) {
					e := benchEngine(b, kind, (10_000*8)+(8<<20), model)
					var arr ptm.Ptr
					if err := e.Update(func(tx ptm.Tx) error {
						var err error
						arr, err = tx.Alloc(10_000 * 8)
						return err
					}); err != nil {
						b.Fatal(err)
					}
					rng := uint64(12345)
					b.ResetTimer()
					for i := 0; i < b.N; i += swaps {
						if err := e.Update(func(tx ptm.Tx) error {
							for s := 0; s < swaps; s++ {
								rng = rng*6364136223846793005 + 1
								x := ptm.Ptr(rng % 10000 * 8)
								rng = rng*6364136223846793005 + 1
								y := ptm.Ptr(rng % 10000 * 8)
								a, c := tx.Load64(arr+x), tx.Load64(arr+y)
								tx.Store64(arr+x, c)
								tx.Store64(arr+y, a)
							}
							return nil
						}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkRecovery measures §6.5: recovery time after a mid-transaction
// crash, as a function of the population, per MiB of twin prefix, for the
// paper's whole-prefix copy and for the diff copy.
func BenchmarkRecovery(b *testing.B) {
	for _, entries := range []int{1000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("%dkv", entries), func(b *testing.B) {
			var full, diff time.Duration
			var last bench.RecoveryResult
			for i := 0; i < b.N; i++ {
				res, err := bench.MeasureRecovery(entries)
				if err != nil {
					b.Fatal(err)
				}
				full, diff, last = full+res.FullCopy, diff+res.DiffCopy, res
			}
			mib := float64(last.Watermark) / (1 << 20) * float64(b.N)
			b.ReportMetric(float64(full.Nanoseconds())/mib, "full-ns/MiB")
			b.ReportMetric(float64(diff.Nanoseconds())/mib, "diff-ns/MiB")
			b.ReportMetric(float64(last.Repaired.Lines), "repaired-lines")
		})
	}
}

// --- Ablations (DESIGN.md §4) ---

// runUpdateBench drives the standard 1,000-key hash-map update op on a
// core engine with the given config.
func runUpdateBench(b *testing.B, cfg core.Config) {
	e, err := core.New(bench.RegionFor(1000, 8), cfg)
	if err != nil {
		b.Fatal(err)
	}
	d, err := bench.NewDS(e, "hash", 1000, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Update(e, uint64(i*2654435761)%1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFlatCombining compares contended writers with and
// without operation combining. An operation is two update transactions, so
// a solo writer pays 8 fences/op; run with -cpu 1,2,4,8 to watch combined
// durability rounds push it below that.
func BenchmarkAblationFlatCombining(b *testing.B) {
	for name, cfg := range map[string]core.Config{
		"combining": {Variant: core.RomLog},
		"spinlock":  {Variant: core.RomLog, DisableFlatCombining: true},
	} {
		b.Run(name, func(b *testing.B) {
			e, err := core.New(bench.RegionFor(1000, 8), cfg)
			if err != nil {
				b.Fatal(err)
			}
			d, err := bench.NewDS(e, "hash", 1000, 0)
			if err != nil {
				b.Fatal(err)
			}
			e.Device().ResetStats()
			b.RunParallel(func(pb *testing.PB) {
				i := uint64(0)
				for pb.Next() {
					if err := d.Update(e, (i*2654435761)%1000); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			st := e.Device().Stats()
			b.ReportMetric(float64(st.Pfences+st.Psyncs)/float64(b.N), "fences/op")
		})
	}
}

// BenchmarkAblationReaderSync compares the two reader mechanisms: C-RW-WP
// (RomLog) vs Left-Right (RomLR) for read transactions.
func BenchmarkAblationReaderSync(b *testing.B) {
	for _, v := range []core.Variant{core.RomLog, core.RomLR} {
		b.Run(v.String(), func(b *testing.B) {
			e, err := core.New(bench.RegionFor(1000, 8), core.Config{Variant: v})
			if err != nil {
				b.Fatal(err)
			}
			d, err := bench.NewDS(e, "hash", 1000, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Read(e, uint64(i)%1000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBasicVsLog shows why §4.7 replicates only what a
// transaction stored: one small update on a region holding ever more data,
// under Algorithm 1's whole-prefix copy (rom-full) and the round's line set
// (romlog).
func BenchmarkAblationBasicVsLog(b *testing.B) {
	for _, heapKB := range []int{64, 1024} {
		for _, c := range []struct {
			name string
			cfg  core.Config
		}{
			{"rom-full", core.Config{Variant: core.Rom, FullReplicate: true}},
			{"romlog", core.Config{Variant: core.RomLog}},
		} {
			b.Run(fmt.Sprintf("%dKB/%s", heapKB, c.name), func(b *testing.B) {
				e, err := core.New(heapKB<<10+core.MinRegionSize, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				var p ptm.Ptr
				if err := e.Update(func(tx ptm.Tx) error {
					var err error
					p, err = tx.Alloc(heapKB << 10) // grow the watermark
					return err
				}); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.Update(func(tx ptm.Tx) error {
						tx.Store64(p, uint64(i))
						return nil
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
