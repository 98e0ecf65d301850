package core

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

// extentsOf runs lineExtents over a set built from region-relative byte
// ranges, as Tx.stored records them (shifted by mainBase).
func extentsOf(s *pmem.LineSet, adds ...[2]int) []rng {
	for _, a := range adds {
		s.Add(headSize+a[0], a[1])
	}
	return lineExtents(nil, s.Lines())
}

func checkExtents(t *testing.T, got, want []rng) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("extents = %v, want %v", got, want)
	}
}

// TestLineExtentsEmptyIsNoop: a round that stored nothing copies nothing.
func TestLineExtentsEmptyIsNoop(t *testing.T) {
	s := pmem.NewLineSet(headSize + 1<<16)
	if got := lineExtents(nil, s.Lines()); len(got) != 0 {
		t.Errorf("empty set has extents %v", got)
	}
}

func TestLineExtentsCoalescesAdjacentLines(t *testing.T) {
	s := pmem.NewLineSet(headSize + 1<<16)
	got := extentsOf(&s,
		[2]int{0, 8},                      // line 0
		[2]int{130, 4},                    // line 2
		[2]int{60, 8},                     // lines 0 and 1 (straddles the boundary)
		[2]int{pmem.LineSize*2 + 32, 100}, // lines 2..4, line 2 already stored
	)
	checkExtents(t, got, []rng{{0, 5 * pmem.LineSize}})
	if s.Len() != 5 {
		t.Errorf("len = %d, want 5 distinct lines", s.Len())
	}
}

func TestLineExtentsKeepsGapsSeparate(t *testing.T) {
	s := pmem.NewLineSet(headSize + 1<<16)
	got := extentsOf(&s,
		[2]int{5 * pmem.LineSize, 8},
		[2]int{0, 8},
		[2]int{9*pmem.LineSize + 60, 8}, // straddles lines 9 and 10
	)
	checkExtents(t, got, []rng{
		{0, pmem.LineSize},
		{5 * pmem.LineSize, pmem.LineSize},
		{9 * pmem.LineSize, 2 * pmem.LineSize},
	})
}

// TestLineExtentsNeverBridgesOneLineGap pins what the byte-granular range log
// got wrong: stores to lines L and L+2 are two one-line extents, never a
// three-line copy (and write-back) of the clean line between them.
func TestLineExtentsNeverBridgesOneLineGap(t *testing.T) {
	s := pmem.NewLineSet(headSize + 1<<16)
	got := extentsOf(&s,
		[2]int{pmem.LineSize - 8, 8}, // last word of line 0
		[2]int{2 * pmem.LineSize, 8}, // first word of line 2
	)
	checkExtents(t, got, []rng{{0, pmem.LineSize}, {2 * pmem.LineSize, pmem.LineSize}})
}

// TestLineExtentsSkipsWatermarkLine pins that the header line the watermark
// bump records is written back at the durable point but never copied between
// the twins, and never coalesced with main's first line.
func TestLineExtentsSkipsWatermarkLine(t *testing.T) {
	s := pmem.NewLineSet(headSize + 1<<16)
	s.Add(offWatermark, 8)
	got := extentsOf(&s, [2]int{0, 8}, [2]int{pmem.LineSize, 8})
	checkExtents(t, got, []rng{{0, 2 * pmem.LineSize}})
	s.Reset()
	s.Add(offWatermark, 8)
	if got := lineExtents(nil, s.Lines()); len(got) != 0 {
		t.Errorf("watermark-only round has extents %v, want none", got)
	}
}

func TestLineExtentsResetIsEmpty(t *testing.T) {
	s := pmem.NewLineSet(headSize + 1<<12)
	extentsOf(&s, [2]int{0, 4096})
	s.Reset()
	if s.Len() != 0 || len(lineExtents(nil, s.Lines())) != 0 {
		t.Error("reset left lines behind")
	}
	checkExtents(t, extentsOf(&s, [2]int{64, 1}), []rng{{64, 64}})
}

// TestLineExtentsAllocationFree pins the hot-path cost: after warm-up a full
// round of adds plus lineExtents allocates nothing.
func TestLineExtentsAllocationFree(t *testing.T) {
	s := pmem.NewLineSet(headSize + 1<<16)
	var scratch []rng
	round := func() {
		s.Reset()
		for j := 0; j < 128; j++ {
			s.Add(headSize+(j*2654435761)%(1<<16), 8)
		}
		scratch = lineExtents(scratch, s.Lines())
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("steady-state round allocated %.1f times, want 0", allocs)
	}
}

// TestReplicateCopiesOnlyStoredLines: one update stores the last word of a
// line L and the first word of line L+2. The round writes back exactly the
// MUT marker, the two main lines, the CPY marker and the two back lines —
// six pwbs persisting six lines on every variant. Fusing the two stores
// across the clean line L+1 would copy and write it back too.
func TestReplicateCopiesOnlyStoredLines(t *testing.T) {
	forEachVariant(t, func(t *testing.T, v Variant) {
		e, err := New(testRegion, Config{Variant: v, Model: pmem.ModelCLWB})
		if err != nil {
			t.Fatal(err)
		}
		var p ptm.Ptr
		if err := e.Update(func(tx ptm.Tx) error {
			p, err = tx.Alloc(4 * pmem.LineSize)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		l := ptm.Ptr(ptm.Align(int(p), pmem.LineSize)) // line L, inside the block
		e.Device().ResetStats()
		if err := e.Update(func(tx ptm.Tx) error {
			tx.Store64(l+pmem.LineSize-8, 1)
			tx.Store64(l+2*pmem.LineSize, 2)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		st := e.Device().Stats()
		if st.Pwbs != 6 || st.LinesPersisted != 6 {
			t.Errorf("round issued %d pwbs persisting %d lines, want 6 and 6", st.Pwbs, st.LinesPersisted)
		}
		if off := e.Verify(); off >= 0 {
			t.Errorf("twins diverge at %d", off)
		}
	})
}

// BenchmarkStoreInterposition pins the per-store cost of the interposition
// path — Store64 through the device store and the one line-set Add —
// amortizing the durability round over a large transaction. rom-full is the
// whole-prefix replication ablation, whose stores are recorded the same way.
func BenchmarkStoreInterposition(b *testing.B) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"romlog", Config{Variant: RomLog}},
		{"romlr", Config{Variant: RomLR}},
		{"rom-full", Config{Variant: Rom, FullReplicate: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			c.cfg.Model = pmem.ModelDRAM
			e, err := New(1<<21, c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			var p ptm.Ptr
			const slots = 8192 // 64 KiB working set
			if err := e.Update(func(tx ptm.Tx) error {
				p, err = tx.Alloc(8 * slots)
				return err
			}); err != nil {
				b.Fatal(err)
			}
			const perTx = 1024
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += perTx {
				if err := e.Update(func(tx ptm.Tx) error {
					for i := 0; i < perTx; i++ {
						tx.Store64(p+ptm.Ptr(8*((n+i*97)%slots)), uint64(i))
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
