package core

import (
	"testing"

	"repro/internal/pmem"
	"repro/internal/ptm"
)

func TestDirtySetDisabledIsNoop(t *testing.T) {
	var s dirtySet
	s.add(0, 100)
	if s.enabled() || s.len() != 0 || s.extents() != nil {
		t.Error("zero dirtySet recorded lines")
	}
}

func TestDirtySetCoalescesAdjacentLines(t *testing.T) {
	var s dirtySet
	s.init(1 << 16)
	s.add(0, 8)                    // line 0
	s.add(130, 4)                  // line 2
	s.add(60, 8)                   // lines 0 and 1 (straddles the boundary)
	s.add(pmem.LineSize*2+32, 100) // lines 2..4, line 2 already dirty
	ext := s.extents()
	want := []rng{{0, 5 * pmem.LineSize}}
	if len(ext) != len(want) || ext[0] != want[0] {
		t.Fatalf("extents = %v, want %v", ext, want)
	}
	if s.len() != 5 {
		t.Errorf("len = %d, want 5 distinct lines", s.len())
	}
}

func TestDirtySetKeepsGapsSeparate(t *testing.T) {
	var s dirtySet
	s.init(1 << 16)
	s.add(5*pmem.LineSize, 8)
	s.add(0, 8)
	s.add(9*pmem.LineSize+60, 8) // straddles lines 9 and 10
	ext := s.extents()
	want := []rng{
		{0, pmem.LineSize},
		{5 * pmem.LineSize, pmem.LineSize},
		{9 * pmem.LineSize, 2 * pmem.LineSize},
	}
	if len(ext) != len(want) {
		t.Fatalf("extents = %v, want %v", ext, want)
	}
	for i := range want {
		if ext[i] != want[i] {
			t.Fatalf("extent %d = %v, want %v", i, ext[i], want[i])
		}
	}
}

func TestDirtySetResetIsEmpty(t *testing.T) {
	var s dirtySet
	s.init(1 << 12)
	s.add(0, 4096)
	s.reset()
	if s.len() != 0 || s.extents() != nil {
		t.Error("reset left lines behind")
	}
	s.add(64, 1)
	if got := s.extents(); len(got) != 1 || got[0] != (rng{64, 64}) {
		t.Errorf("post-reset extents = %v, want [{64 64}]", got)
	}
}

// TestDirtySetAllocationFree pins the hot-path cost: after warm-up a full
// round of adds plus extents() allocates nothing.
func TestDirtySetAllocationFree(t *testing.T) {
	var s dirtySet
	s.init(1 << 16)
	round := func() {
		s.reset()
		for j := 0; j < 128; j++ {
			s.add(uint64((j*2654435761)%(1<<16)), 8)
		}
		s.extents()
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("steady-state round allocated %.1f times, want 0", allocs)
	}
}

// BenchmarkStoreInterposition pins the per-store cost of the interposition
// path — Store64 through the device store, the dirty tracker (range log for
// romlog, dirty set for rom, disabled for the rom-full ablation) and the
// flush set — amortizing the durability round over a large transaction.
func BenchmarkStoreInterposition(b *testing.B) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"rom", Config{Variant: Rom}},
		{"rom-full", Config{Variant: Rom, FullReplicate: true}},
		{"romlog", Config{Variant: RomLog}},
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
